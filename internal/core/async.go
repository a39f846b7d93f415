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
// verified empirically by experiment E10):
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

// asyncRun is the view-independent half of the AsyncStepper: the informed
// set, the crash/churn schedule, and the strandedness check.
type asyncRun struct {
	st         *spreadState
	informedAt []float64
	cfg        AsyncConfig
	prob       float64
	avail      *availTracker
	sources    []graph.NodeID
	// checkEvery throttles the strandedness scan needed when crashes or
	// churn may isolate the rumor; 0 disables the scan.
	checkEvery int64
	// dynamic marks a time-varying topology: the static progress scan is
	// replaced by the online-informed-count check (a later epoch may
	// reconnect anything the current graph separates).
	dynamic bool
	// aliveInformed counts informed nodes currently online; maintained
	// only when a schedule is present.
	aliveInformed int
	halted        bool // progress became impossible (crash/churn isolation)
}

func newAsyncRun(g *graph.Graph, src graph.NodeID, cfg AsyncConfig, prob float64) (*asyncRun, error) {
	n := g.NumNodes()
	sources, err := gatherSources(g, src, cfg.ExtraSources)
	if err != nil {
		return nil, err
	}
	avail, err := newAvailTracker(n, cfg.Crashes, cfg.Churn)
	if err != nil {
		return nil, err
	}
	a := &asyncRun{
		// Only the schedule's strandedness scan and amnesiac rejoins read
		// the boundary.
		st:         newSpreadState(g, sources, avail != nil),
		informedAt: make([]float64, n),
		cfg:        cfg,
		prob:       prob,
		avail:      avail,
		sources:    sources,
	}
	a.aliveInformed = len(sources)
	if avail != nil {
		a.checkEvery = int64(2*n) + 16
	}
	a.startTrial()
	return a, nil
}

// reset re-initializes the run for a fresh trial, reusing storage.
func (a *asyncRun) reset() {
	reachable := a.st.reachable
	if a.dynamic {
		reachable = len(a.informedAt)
	}
	a.st.reset(a.sources, reachable)
	if a.avail != nil {
		a.avail.reset()
	}
	a.aliveInformed = len(a.sources)
	a.halted = false
	a.startTrial()
}

// startTrial stamps the sources into informedAt and notifies the observer.
func (a *asyncRun) startTrial() {
	for i := range a.informedAt {
		a.informedAt[i] = -1
	}
	for _, s := range a.sources {
		a.informedAt[s] = 0
		if a.cfg.Observer != nil {
			a.cfg.Observer.OnInformed(0, s, -1)
		}
	}
}

// tick advances the crash/churn schedule to time t and periodically
// re-checks whether the rumor is stranded; it reports whether the run
// should stop.
func (a *asyncRun) tick(t float64, step int64) bool {
	if a.avail == nil {
		return false
	}
	a.avail.advance(t, a.applyChurn)
	if a.st.done() {
		// An amnesiac rejoin or permanent leave moved the target.
		return true
	}
	if step%a.checkEvery == 0 {
		stranded := false
		if a.dynamic {
			stranded = a.aliveInformed == 0
		} else {
			stranded = !progressPossible(a.st, a.avail)
		}
		if stranded && !a.avail.hasFutureJoin() {
			a.halted = true
			return true
		}
	}
	return false
}

// applyChurn is the availTracker transition callback; see
// SyncStepper.applyChurn for the invariants it maintains.
func (a *asyncRun) applyChurn(ev ChurnEvent, perm bool) {
	v := ev.Node
	switch ev.Op {
	case ChurnLeave:
		if a.st.informed.get(v) {
			a.aliveInformed--
		} else if perm && a.dynamic {
			a.st.reachable--
		}
	case ChurnJoin:
		if !a.st.informed.get(v) {
			return
		}
		if ev.DropState {
			a.st.uninform(v)
			a.informedAt[v] = -1
		} else {
			a.aliveInformed++
		}
	}
}

// contact processes one step in which v contacts w at time t.
func (a *asyncRun) contact(t float64, v, w graph.NodeID, rng *xrand.RNG) {
	if !aliveIn(a.avail, v) || !aliveIn(a.avail, w) {
		return
	}
	vInf, wInf := a.st.informed.get(v), a.st.informed.get(w)
	if vInf == wInf {
		return
	}
	switch a.cfg.Protocol {
	case Push:
		if !vInf {
			return
		}
	case Pull:
		if !wInf {
			return
		}
	}
	if a.prob < 1 && !rng.Bernoulli(a.prob) {
		return
	}
	if vInf {
		a.inform(t, w, v)
	} else {
		a.inform(t, v, w)
	}
}

func (a *asyncRun) inform(t float64, v, from graph.NodeID) {
	a.st.markInformed(v, from)
	a.informedAt[v] = t
	a.aliveInformed++
	if a.cfg.Observer != nil {
		a.cfg.Observer.OnInformed(t, v, from)
	}
}

func (a *asyncRun) result(t float64, steps int64) AsyncResult {
	return AsyncResult{
		Time:        t,
		Steps:       steps,
		InformedAt:  a.informedAt,
		Parent:      a.st.parent,
		NumInformed: a.st.num,
		Complete:    a.st.num == len(a.informedAt),
	}
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
