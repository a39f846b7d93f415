package gossip

import (
	"context"
	"fmt"
	"io"

	"rumor/internal/service"
)

// E16 is the overlay experiment: run the live cluster and the
// simulator on the identical (graph, protocol, timing) cell and
// compare the normalized coverage curves, with the spreading-time
// ratio (live t100 / simulated t100) as the headline number. A ratio
// near 1 with matching curve shapes is the credibility check for the
// whole simulation stack; live-only effects (threshold acceptance,
// link latency) deliberately push it away from 1 and measure what the
// simulator does not model.

// overlayFracs is the milestone grid both sides report, chosen so the
// curves are comparable point by point.
func overlayFracs() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0}
}

// OverlaySide is one side's aggregated coverage curve.
type OverlaySide struct {
	// Coverage maps milestone names to mean times (protocol units);
	// -1 if the milestone was never reached.
	Coverage map[string]float64 `json:"coverage"`
	// SpreadTime is the mean time to full coverage, -1 if unreached.
	SpreadTime float64 `json:"spread_time"`
	// Trials is how many runs the side averaged.
	Trials int `json:"trials"`
}

// OverlayResult is the E16 output.
type OverlayResult struct {
	// Cell is the shared spec both sides ran.
	Cell service.CellSpec `json:"cell"`
	// Graph, N, M describe the built instance.
	Graph string `json:"graph"`
	N     int    `json:"n"`
	M     int    `json:"m"`
	// Live and Sim are the two measurements.
	Live OverlaySide `json:"live"`
	Sim  OverlaySide `json:"sim"`
	// Ratio is live SpreadTime / sim SpreadTime (-1 if either side
	// fell short of full coverage).
	Ratio float64 `json:"ratio"`
	// LiveIncomplete counts live trials that ended short of full
	// coverage (possible under loss with the round/wait caps).
	LiveIncomplete int `json:"live_incomplete"`
	// LiveOnly notes active effects the simulator does not model.
	LiveOnly []string `json:"live_only,omitempty"`
}

// RunOverlay executes E16: cell, with the overlay's milestone grid, runs
// through sim as it stands and through live with liveTrials trials, and
// the two results are read by one rule. Neither runner needs to be what
// its name says — two fakes test all of this without a socket.
func RunOverlay(ctx context.Context, live, sim service.CellRunner, cell service.CellSpec, liveTrials int) (*OverlayResult, error) {
	cell.CoverageFracs = overlayFracs()
	res := &OverlayResult{Cell: cell, Ratio: -1}
	simRes, err := res.Sim.run(ctx, sim, cell)
	if err != nil {
		return nil, fmt.Errorf("gossip: overlay simulator run: %w", err)
	}
	res.Graph, res.N, res.M = simRes.Graph, simRes.N, simRes.M
	cell.Trials = liveTrials
	liveRes, err := res.Live.run(ctx, live, cell)
	if err != nil {
		return nil, fmt.Errorf("gossip: overlay live run: %w", err)
	}
	for _, informed := range liveRes.Series[seriesInformed] {
		if int(informed) < liveRes.N {
			res.LiveIncomplete++
		}
	}
	if res.Live.SpreadTime > 0 && res.Sim.SpreadTime > 0 {
		res.Ratio = res.Live.SpreadTime / res.Sim.SpreadTime
	}
	if lr, ok := live.(LiveRunner); ok {
		if lr.Spec.Threshold > 1 {
			res.LiveOnly = append(res.LiveOnly, fmt.Sprintf("acceptance threshold %d", lr.Spec.Threshold))
		}
		if lr.Spec.Latency.Dist != LatencyNone {
			res.LiveOnly = append(res.LiveOnly, fmt.Sprintf("link latency %s:%s", lr.Spec.Latency.Dist, lr.Spec.Latency.Mean))
		}
	}
	return res, nil
}

// run executes cell on r and fills the side from its result: the mean
// milestones as the cell's fold left them — -1 where any trial fell
// short — with the last one as the spreading time.
func (s *OverlaySide) run(ctx context.Context, r service.CellRunner, cell service.CellSpec) (*service.CellResult, error) {
	results, err := r.StreamCells(ctx, []service.CellSpec{cell}, nil)
	if err != nil {
		return nil, err
	}
	res := results[0]
	*s = OverlaySide{Coverage: res.Coverage, SpreadTime: res.Coverage[service.CoverageName(1.0)], Trials: cell.Trials}
	return res, nil
}

// RenderText writes the overlay comparison as an aligned table of
// normalized coverage curves plus the ratio headline.
func (r *OverlayResult) RenderText(w io.Writer) error {
	unit := "rounds"
	if r.Cell.Timing == service.TimingAsync {
		unit = "time units"
	}
	fmt.Fprintf(w, "E16 overlay: %s, %s/%s, n=%d, m=%d, loss=%g (%s)\n",
		r.Graph, r.Cell.Protocol, r.Cell.Timing, r.N, r.M, r.Cell.LossProb, unit)
	if len(r.LiveOnly) > 0 {
		fmt.Fprintf(w, "live-only effects: %v\n", r.LiveOnly)
	}
	fmt.Fprintf(w, "%-6s %12s %12s %10s %10s\n", "frac", "live", "sim", "live/t100", "sim/t100")
	for _, frac := range overlayFracs() {
		name := service.CoverageName(frac)
		lv, sv := r.Live.Coverage[name], r.Sim.Coverage[name]
		ln, sn := norm(lv, r.Live.SpreadTime), norm(sv, r.Sim.SpreadTime)
		fmt.Fprintf(w, "%-6.2f %12s %12s %10s %10s\n", frac,
			fmtTime(lv), fmtTime(sv), fmtTime(ln), fmtTime(sn))
	}
	if r.LiveIncomplete > 0 {
		fmt.Fprintf(w, "live trials short of full coverage: %d/%d\n", r.LiveIncomplete, r.Live.Trials)
	}
	if r.Ratio >= 0 {
		fmt.Fprintf(w, "spreading-time ratio (live/sim): %.3f\n", r.Ratio)
	} else {
		fmt.Fprintf(w, "spreading-time ratio (live/sim): n/a (incomplete coverage)\n")
	}
	return nil
}

func norm(v, t100 float64) float64 {
	if v < 0 || t100 <= 0 {
		return -1
	}
	return v / t100
}

func fmtTime(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}
