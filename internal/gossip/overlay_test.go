package gossip

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"rumor/internal/graph"
	"rumor/internal/service"
)

// fakeRunner is a service.CellRunner that opens no socket: it records the
// cells it was asked for and answers each from run.
type fakeRunner struct {
	run   func(cell service.CellSpec) (*service.CellResult, error)
	cells []service.CellSpec
}

func (f *fakeRunner) StreamCells(ctx context.Context, cells []service.CellSpec, fn func(*service.CellResult) error) ([]*service.CellResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]*service.CellResult, len(cells))
	for i, cell := range cells {
		f.cells = append(f.cells, cell)
		res, err := f.run(cell)
		if err == nil && fn != nil {
			err = fn(res)
		}
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// syncReports renders per-node informed rounds (-1 = never informed) as
// the reports a sync trial's final sweep would collect.
func syncReports(rounds ...int32) []Report {
	reports := make([]Report, len(rounds))
	for i, r := range rounds {
		reports[i] = Report{Node: i, Informed: r >= 0, InformedRound: r, Sent: 2, Received: 2}
	}
	return reports
}

// fakeLive answers a cell the way LiveRunner does once the sockets are
// out of the picture: one TrialResult per list of informed rounds, built
// and folded by the live runner's own code.
func fakeLive(t *testing.T, g *graph.Graph, trials ...[]int32) *fakeRunner {
	return &fakeRunner{run: func(cell service.CellSpec) (*service.CellResult, error) {
		if cell.Trials != len(trials) {
			t.Errorf("live side asked for %d trials, want %d", cell.Trials, len(trials))
		}
		results := make([]*TrialResult, len(trials))
		for i, rounds := range trials {
			results[i] = buildResult(TrialSpec{Cell: cell}, g, 0, syncReports(rounds...))
		}
		return cellResult(cell, g, results), nil
	}}
}

func overlayCell(trials int) service.CellSpec {
	return service.CellSpec{Family: "complete", N: 8, Protocol: "push-pull", Timing: service.TimingSync,
		Trials: trials, GraphSeed: 7, TrialSeed: 11}
}

// TestOverlayOfTwoRunners: E16 is a comparison of two CellResults, so two
// fakes exercise all of it: both sides get the one cell (the live side
// with the live trial count), both are read by the same rule, and the
// ratio is live t100 over simulated t100.
func TestOverlayOfTwoRunners(t *testing.T) {
	cell := overlayCell(4)
	g, err := service.BuildGraph(cell)
	if err != nil {
		t.Fatal(err)
	}
	live := fakeLive(t, g,
		[]int32{0, 1, 1, 2, 2, 2, 3, 3},
		[]int32{0, 1, 2, 2, 3, 3, 3, 5})
	sim := &service.Executor{}
	res, err := RunOverlay(context.Background(), live, sim, cell, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunCells(context.Background(), []service.CellSpec{res.Cell})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Cell.CoverageFracs, overlayFracs()) || res.Cell.Trials != 4 {
		t.Fatalf("shared cell = %+v", res.Cell)
	}
	liveCell := res.Cell
	liveCell.Trials = 2
	if len(live.cells) != 1 || !reflect.DeepEqual(live.cells[0], liveCell) {
		t.Fatalf("live side ran %+v, want the shared cell with 2 trials", live.cells)
	}
	if res.Graph != g.Name() || res.N != 8 || res.M != g.NumEdges() {
		t.Fatalf("graph identity = %s n=%d m=%d", res.Graph, res.N, res.M)
	}
	q100 := service.CoverageName(1.0)
	if !reflect.DeepEqual(res.Sim.Coverage, want[0].Coverage) || res.Sim.SpreadTime != want[0].Coverage[q100] || res.Sim.Trials != 4 {
		t.Fatalf("sim side = %+v, want the executor's coverage %v", res.Sim, want[0].Coverage)
	}
	if res.Live.SpreadTime != 4 || res.Live.Coverage[q100] != 4 || res.Live.Trials != 2 {
		t.Fatalf("live side = %+v, want t100 = mean(3, 5)", res.Live)
	}
	if got := res.Live.Coverage[service.CoverageName(0.5)]; got != 2 { // 4th of 8 nodes: rounds 2 and 2
		t.Fatalf("live q50 = %v, want 2", got)
	}
	if res.LiveIncomplete != 0 || res.Ratio != 4/res.Sim.SpreadTime {
		t.Fatalf("ratio = %v, incomplete = %d", res.Ratio, res.LiveIncomplete)
	}
	if len(res.LiveOnly) != 0 {
		t.Fatalf("live-only effects from a fake: %v", res.LiveOnly)
	}
}

// TestOverlayShortLiveTrialIsUnreached: a milestone one live trial fell
// short of reads -1, the rule the simulator side has always followed — a
// mean over the trials that got there would mix reached and unreached
// runs without saying so. The short trial is still counted.
func TestOverlayShortLiveTrialIsUnreached(t *testing.T) {
	cell := overlayCell(3)
	g, err := service.BuildGraph(cell)
	if err != nil {
		t.Fatal(err)
	}
	live := fakeLive(t, g,
		[]int32{0, 1, 1, 2, 2, 2, 3, 3},
		[]int32{0, 1, 2, 2, 3, 4, 4, -1}) // 7 of 8: short of q90, q95 and q100
	res, err := RunOverlay(context.Background(), live, &service.Executor{}, cell, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range overlayFracs() {
		name := service.CoverageName(frac)
		got := res.Live.Coverage[name]
		if reached := math.Ceil(frac*8) <= 7; reached && got < 0 {
			t.Errorf("live %s = %v, both trials reached it", name, got)
		} else if !reached && got != -1 {
			t.Errorf("live %s = %v, want -1: one trial never reached it", name, got)
		}
	}
	if got := res.Live.Coverage[service.CoverageName(0.8)]; got != 3.5 { // 7th node: rounds 3 and 4
		t.Errorf("live q80 = %v, want 3.5", got)
	}
	if res.Live.SpreadTime != -1 || res.Ratio != -1 {
		t.Errorf("spread = %v, ratio = %v, want -1 and -1", res.Live.SpreadTime, res.Ratio)
	}
	if res.LiveIncomplete != 1 {
		t.Errorf("live_incomplete = %d, want 1", res.LiveIncomplete)
	}
	var sb strings.Builder
	if err := res.RenderText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"live trials short of full coverage: 1/2", "n/a (incomplete coverage)"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered overlay missing %q:\n%s", want, sb.String())
		}
	}
}

// TestOverlayRunnerErrors: either side's failure is the overlay's, and a
// cancelled context reaches the runners.
func TestOverlayRunnerErrors(t *testing.T) {
	cell := overlayCell(2)
	boom := errors.New("boom")
	failing := &fakeRunner{run: func(service.CellSpec) (*service.CellResult, error) { return nil, boom }}
	if _, err := RunOverlay(context.Background(), failing, &service.Executor{}, cell, 1); !errors.Is(err, boom) {
		t.Errorf("live failure: err = %v", err)
	}
	g, _ := service.BuildGraph(cell)
	if _, err := RunOverlay(context.Background(), fakeLive(t, g, make([]int32, 8)), failing, cell, 1); !errors.Is(err, boom) {
		t.Errorf("simulator failure: err = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunOverlay(ctx, fakeLive(t, g, make([]int32, 8)), &service.Executor{}, cell, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled: err = %v", err)
	}
}

func TestRunOverlaySync(t *testing.T) {
	spec := testSpec("complete", 8, "push-pull", service.TimingSync)
	spec.Cell.Trials = 3
	c, err := NewSelfHost(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := RunOverlay(context.Background(), LiveRunner{Cluster: c, Spec: spec}, &service.Executor{}, spec.Cell, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 8 {
		t.Fatalf("n = %d", res.N)
	}
	if res.Live.SpreadTime <= 0 || res.Sim.SpreadTime <= 0 {
		t.Fatalf("spread times live=%v sim=%v", res.Live.SpreadTime, res.Sim.SpreadTime)
	}
	if res.Ratio <= 0 {
		t.Fatalf("ratio = %v", res.Ratio)
	}
	// On a lossless complete graph both sides finish in a handful of
	// rounds; the ratio must be same-order, not orders apart.
	if res.Ratio < 0.1 || res.Ratio > 10 {
		t.Fatalf("live/sim ratio %v outside sanity band", res.Ratio)
	}
	q100 := service.CoverageName(1.0)
	if res.Live.Coverage[q100] != res.Live.SpreadTime {
		t.Fatalf("live q100 %v != spread %v", res.Live.Coverage[q100], res.Live.SpreadTime)
	}

	var sb strings.Builder
	if err := res.RenderText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E16 overlay", "spreading-time ratio", "frac", "1.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered overlay missing %q:\n%s", want, out)
		}
	}
}

func TestRunOverlayFlagsLiveOnlyEffects(t *testing.T) {
	spec := testSpec("complete", 4, "push-pull", service.TimingSync)
	spec.Threshold = 2
	spec.Latency = LatencySpec{Dist: LatencyFixed, Mean: time.Millisecond}
	c, err := NewSelfHost(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := RunOverlay(context.Background(), LiveRunner{Cluster: c, Spec: spec}, &service.Executor{}, spec.Cell, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LiveOnly) != 2 {
		t.Fatalf("live-only effects = %v", res.LiveOnly)
	}
}
