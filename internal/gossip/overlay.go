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

// OverlayConfig parameterizes one overlay run.
type OverlayConfig struct {
	// Spec is the live trial spec; Spec.Cell is also the simulator's
	// cell (its Trials field sets the simulator trial count).
	Spec TrialSpec
	// LiveTrials is the number of live trials averaged (0 = 3).
	LiveTrials int
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

// RunOverlay executes E16 on the given cluster: cfg.LiveTrials live
// trials, one simulator run of the identical cell, and the comparison.
func RunOverlay(c *Cluster, cfg OverlayConfig) (*OverlayResult, error) {
	spec := cfg.Spec
	if spec.Cell.Trials <= 0 {
		spec.Cell.Trials = 5
	}
	spec.Cell.CoverageFracs = overlayFracs()
	liveTrials := cfg.LiveTrials
	if liveTrials <= 0 {
		liveTrials = 3
	}

	// Simulator side: the one execution spine, same cell.
	exec := &service.Executor{Graphs: service.NewGraphCache(0)}
	simResults, err := exec.RunCells(context.Background(), []service.CellSpec{spec.Cell})
	if err != nil {
		return nil, fmt.Errorf("gossip: overlay simulator run: %w", err)
	}
	sim := simResults[0]

	res := &OverlayResult{
		Cell:  spec.Cell,
		Graph: sim.Graph,
		N:     sim.N,
		M:     sim.M,
		Sim: OverlaySide{
			Coverage:   sim.Coverage,
			SpreadTime: sim.Summary.Mean,
			Trials:     spec.Cell.Trials,
		},
	}
	if cov, ok := sim.Coverage[service.CoverageName(1.0)]; ok {
		res.Sim.SpreadTime = cov
	}

	// Live side: independent trials, each reseeded off the cell's
	// trial seed.
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for t := 0; t < liveTrials; t++ {
		trial := spec
		trial.Cell.TrialSeed = spec.Cell.TrialSeed + uint64(t)*0x9E3779B97F4A7C15
		tr, err := c.RunTrial(trial)
		if err != nil {
			return nil, fmt.Errorf("gossip: overlay live trial %d: %w", t, err)
		}
		if tr.SpreadTime < 0 {
			res.LiveIncomplete++
		}
		for name, v := range tr.Coverage {
			if v >= 0 {
				sums[name] += v
				counts[name]++
			}
		}
	}
	live := OverlaySide{Coverage: make(map[string]float64), Trials: liveTrials}
	for _, frac := range overlayFracs() {
		name := service.CoverageName(frac)
		if counts[name] > 0 {
			live.Coverage[name] = sums[name] / float64(counts[name])
		} else {
			live.Coverage[name] = -1
		}
	}
	q100 := service.CoverageName(1.0)
	live.SpreadTime = -1
	if counts[q100] == liveTrials { // mean over full-coverage-only is biased otherwise
		live.SpreadTime = live.Coverage[q100]
	}
	res.Live = live

	res.Ratio = -1
	if res.Live.SpreadTime > 0 && res.Sim.SpreadTime > 0 {
		res.Ratio = res.Live.SpreadTime / res.Sim.SpreadTime
	}
	if spec.Threshold > 1 {
		res.LiveOnly = append(res.LiveOnly, fmt.Sprintf("acceptance threshold %d", spec.Threshold))
	}
	if spec.Latency.Dist != LatencyNone {
		res.LiveOnly = append(res.LiveOnly, fmt.Sprintf("link latency %s:%s", spec.Latency.Dist, spec.Latency.Mean))
	}
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
	fracs := overlayFracs()
	names := make([]string, 0, len(fracs))
	for _, f := range fracs {
		names = append(names, service.CoverageName(f))
	}
	liveT100 := r.Live.SpreadTime
	simT100 := r.Sim.SpreadTime
	for i, name := range names {
		lv, sv := r.Live.Coverage[name], r.Sim.Coverage[name]
		ln, sn := norm(lv, liveT100), norm(sv, simT100)
		fmt.Fprintf(w, "%-6.2f %12s %12s %10s %10s\n", fracs[i],
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
