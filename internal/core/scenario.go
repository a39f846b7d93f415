package core

import (
	"cmp"

	"rumor/internal/graph"
)

// scenario is the runtime both steppers stand on: everything Section 2
// of the paper gives pp and pp-a in common. It owns the graph sequence,
// the informed set, the sources, the protocol and transmit probability,
// the crash/churn schedule with the online-informed count it maintains,
// the observer, and the deferred topology error. A stepper embeds it and
// adds only what the timings differ in — a clock, a contact rule, an
// informing-time arena, and how often it asks whether the rumor is
// stranded — so a schedule, a source set and a graph sequence mean the
// same thing under both timings by construction.
type scenario struct {
	g        *graph.Graph // the graph in effect now
	st       *spreadState
	avail    *availTracker // nil with no schedule
	prob     float64
	protocol Protocol
	observer Observer
	topo     graph.Provider
	// dynamic marks a time-varying topology. Static reachability means
	// nothing there (a later epoch may reconnect anything the current
	// graph separates): every node not permanently churned out is a
	// completion target, and only a network with no online informed node
	// is stranded.
	dynamic bool
	sources []graph.NodeID
	// forget clears a node's entry in the stepper's informing-time arena
	// (an amnesiac rejoin).
	forget func(v graph.NodeID)
	// aliveInformed counts informed nodes currently online; it is read
	// only under a schedule.
	aliveInformed int
	terr          error
}

// newScenario binds topo's first graph and checks it holds the source;
// the options were CheckScenario's. The embedding stepper follows with
// build, its forget hook and reset, in that order.
func newScenario(topo graph.Provider, src graph.NodeID, p Protocol, prob float64, observer Observer) (scenario, error) {
	_, static := topo.(*graph.Static)
	sc := scenario{protocol: p, prob: cmp.Or(prob, 1), observer: observer, topo: topo, dynamic: !static}
	sc.rewind()
	return sc, checkStart(sc.g, src)
}

// build gathers the sources, indexes the schedule and allocates the
// spread state. everyStep says the stepper's contact rule reads the
// uninformed boundary; otherwise the boundary is maintained only for a
// schedule's readers (the strandedness scan and amnesiac rejoins).
func (sc *scenario) build(src graph.NodeID, extra []graph.NodeID, crashes []Crash, churn []ChurnEvent, everyStep bool) (err error) {
	if sc.sources, err = gatherSources(sc.g, src, extra); err != nil {
		return err
	}
	if sc.avail, err = newAvailTracker(sc.g.NumNodes(), crashes, churn); err != nil {
		return err
	}
	sc.st = newSpreadState(sc.g, sc.sources, everyStep || sc.avail != nil)
	return nil
}

// rewind restarts the graph sequence at its first graph.
func (sc *scenario) rewind() {
	sc.topo.Reset()
	sc.g, _ = sc.topo.At(0)
}

// reset rewinds the scenario to time 0 — first graph, sources informed
// and announced to the observer, schedule unapplied — reusing all storage.
func (sc *scenario) reset() {
	sc.rewind()
	sc.st.g = sc.g
	reachable := sc.st.reachable // a function of (g, sources) on a static graph
	if sc.dynamic {
		reachable = sc.g.NumNodes()
	}
	sc.st.reset(sc.sources, reachable)
	if sc.avail != nil {
		sc.avail.reset()
	}
	sc.aliveInformed = len(sc.sources)
	sc.terr = nil
	if sc.observer != nil {
		for _, src := range sc.sources {
			sc.observer.OnInformed(0, src, -1)
		}
	}
}

// advance applies the schedule (there must be one) up to time t and
// reports whether that ended the run: an amnesiac rejoin or a permanent
// leave moved the completion target onto the informed set, or — looked
// for only when check is set — the rumor is stranded with no join
// pending. On a static graph stranded means no online uninformed node has
// an online informed neighbor; on a dynamic one, that no informed node is
// online.
func (sc *scenario) advance(t float64, check bool) bool {
	sc.avail.advance(t, sc.applyChurn)
	if sc.st.done() {
		return true
	}
	if !check {
		return false
	}
	stranded := sc.aliveInformed == 0
	if !sc.dynamic {
		stranded = !progressPossible(sc.st, sc.avail)
	}
	return stranded && !sc.avail.hasFutureJoin()
}

// applyChurn is the availTracker transition callback: it keeps the
// online-informed count, the amnesiac-rejoin uninform, and (on dynamic
// topologies) the completion target in sync with the offline set.
func (sc *scenario) applyChurn(ev ChurnEvent, perm bool) {
	v := ev.Node
	switch ev.Op {
	case ChurnLeave:
		if sc.st.informed.get(v) {
			sc.aliveInformed--
		} else if perm && sc.dynamic {
			// Gone for good and never informed: it can no longer count
			// against completion. Static topologies instead terminate
			// through the progress scan, which handles disconnected
			// base graphs correctly.
			sc.st.reachable--
		}
	case ChurnJoin:
		if !sc.st.informed.get(v) {
			return
		}
		if ev.DropState {
			sc.st.uninform(v)
			sc.forget(v)
		} else {
			sc.aliveInformed++
		}
	}
}

// at moves a dynamic scenario to the graph in effect at time t and
// reports whether the run can go on; a materialization failure ends it
// and is kept for Err.
func (sc *scenario) at(t float64) bool {
	g, changed := sc.topo.At(t)
	if sc.terr = sc.topo.Err(); sc.terr != nil {
		return false
	}
	if changed {
		sc.g = g
		sc.st.rebind(g)
	}
	return true
}

// inform adds v, told by from at time t, to the informed set.
func (sc *scenario) inform(t float64, v, from graph.NodeID) {
	sc.st.markInformed(v, from)
	sc.aliveInformed++
	if sc.observer != nil {
		sc.observer.OnInformed(t, v, from)
	}
}

// Err returns the deferred topology-materialization error that ended
// the run early, if any. Static-topology steppers always return nil.
func (sc *scenario) Err() error { return sc.terr }

// NumInformed returns the current informed-node count.
func (sc *scenario) NumInformed() int { return sc.st.num }

// Informed reports whether v currently knows the rumor.
func (sc *scenario) Informed(v graph.NodeID) bool { return sc.st.informed.get(v) }

// startTimes fills a stepper's informing-time arena for time 0: the
// sources informed, nobody else.
func startTimes[T int32 | float64](at []T, sources []graph.NodeID) {
	for i := range at {
		at[i] = -1
	}
	for _, src := range sources {
		at[src] = 0
	}
}
