package core

import (
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// defaultMaxSteps returns a generous cap on asynchronous steps.
func defaultMaxSteps(n int) int64 {
	if n < 2 {
		return 1
	}
	steps := 800 * int64(n) * int64(ilog2(n))
	if steps < 100000 {
		steps = 100000
	}
	return steps
}

// RunAsync executes an asynchronous rumor spreading process (pp-a with the
// configured protocol) from src and returns the result.
//
// The three views are distributionally identical (Section 2 of the paper;
// experiment E10 tests it on RunAsyncReference's literal clocks):
//
//   - GlobalClock: steps occur at the ticks of one rate-n Poisson clock;
//     each step a uniform node contacts a uniform neighbor.
//   - PerNodeClocks: every node ticks at rate 1.
//   - PerEdgeClocks: every directed edge (v, w) ticks at rate 1/deg(v).
//
// If the step budget is exhausted, the partial result is returned together
// with an error wrapping ErrBudget.
func RunAsync(g *graph.Graph, src graph.NodeID, cfg AsyncConfig, rng *xrand.RNG) (*AsyncResult, error) {
	return RunAsyncTopo(graph.NewStatic(g), src, cfg, rng)
}

// RunAsyncTopo is RunAsync over a time-varying topology (GlobalClock
// and PerNodeClocks views only): the contact at each tick uses topo's
// graph at the tick time. A topology materialization failure is
// returned as an error alongside the partial result.
func RunAsyncTopo(topo graph.Provider, src graph.NodeID, cfg AsyncConfig, rng *xrand.RNG) (*AsyncResult, error) {
	out, err := runOnce(topo, src, cfg, 0, false, rng)
	return out.Async, err
}

// AsyncSpreadingTime runs pp-a with the given protocol (GlobalClock view)
// and returns only T(α, G, u): the time before all nodes are informed.
// It returns an error if the graph is disconnected or the budget is
// exhausted.
func AsyncSpreadingTime(g *graph.Graph, src graph.NodeID, p Protocol, rng *xrand.RNG) (float64, error) {
	out, err := runOnce(graph.NewStatic(g), src, AsyncConfig{Protocol: p}, 0, false, rng)
	if err != nil {
		return 0, err
	}
	return out.SpreadingTime()
}
