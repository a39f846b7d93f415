package core

import (
	"errors"
	"fmt"
	"sort"

	"rumor/internal/graph"
)

// Crash schedules a permanent fail-stop failure: from Time on (round
// number for synchronous runs, continuous time for asynchronous runs),
// the node neither initiates contacts nor responds to them, so any
// rumor it holds is lost to the network. Crash injection is an extension
// beyond the paper's model, used to study the
// protocol's robustness. A crash is churn that never rejoins: crash
// schedules and churn schedules share one tracker.
type Crash struct {
	Node graph.NodeID
	Time float64
}

// ChurnOp is the kind of a churn event.
type ChurnOp int

// Churn operations.
const (
	// ChurnLeave takes the node offline: it neither initiates contacts
	// nor responds to them. Unlike a crash it may rejoin later.
	ChurnLeave ChurnOp = iota + 1
	// ChurnJoin brings a previously offline node back. With DropState
	// it rejoins amnesiac: any rumor it held is forgotten.
	ChurnJoin
)

// String returns the schedule-syntax name of the operation.
func (op ChurnOp) String() string {
	switch op {
	case ChurnLeave:
		return "leave"
	case ChurnJoin:
		return "join"
	default:
		return fmt.Sprintf("ChurnOp(%d)", int(op))
	}
}

// ChurnEvent schedules a node joining or leaving the network at Time
// (round number for synchronous runs, continuous time for asynchronous
// runs). Leave events for nodes already offline and Join events for
// nodes already online are no-ops, so schedules compose without
// cross-validation.
type ChurnEvent struct {
	Node graph.NodeID
	Time float64
	Op   ChurnOp
	// DropState makes a Join amnesiac: the node rejoins uninformed even
	// if it held the rumor when it left.
	DropState bool
}

// Schedule validation errors.
var (
	// ErrBadCrash reports an invalid crash schedule entry.
	ErrBadCrash = errors.New("core: invalid crash schedule")
	// ErrBadChurn reports an invalid churn schedule entry.
	ErrBadChurn = errors.New("core: invalid churn schedule")
)

// churnRec is one indexed schedule entry. perm marks a Leave with no
// later Join for the same node: the node is gone for good, which lets
// dynamic-topology runs shrink their completion target instead of
// spinning until the step budget.
type churnRec struct {
	ev   ChurnEvent
	perm bool
}

// availTracker applies a merged crash + churn schedule as simulated
// time advances, tracking which nodes are currently offline. It
// generalizes the original crash-only tracker; with a crash-only
// schedule it behaves identically (crashes are Leave events that never
// rejoin).
type availTracker struct {
	down  []bool
	sched []churnRec // stable-sorted by Time; crashes precede churn at equal times
	// joinsAfter[i] is the number of Join events in sched[i:], so
	// hasFutureJoin is O(1) at any point in the schedule.
	joinsAfter []int32
	next       int
}

// newAvailTracker checks a crash + churn schedule CheckScenario accepted
// against the graph's n nodes and indexes it; it returns nil when both
// schedules are empty. The merged schedule is
// stable-sorted by Time: crashes apply before churn events at the same
// time, and same-time churn events apply in their given order.
func newAvailTracker(n int, crashes []Crash, churn []ChurnEvent) (*availTracker, error) {
	if len(crashes) == 0 && len(churn) == 0 {
		return nil, nil
	}
	sched := make([]churnRec, 0, len(crashes)+len(churn))
	for _, c := range crashes {
		if c.Node < 0 || int(c.Node) >= n {
			return nil, fmt.Errorf("%w: node %d out of range", ErrBadCrash, c.Node)
		}
		sched = append(sched, churnRec{ev: ChurnEvent{Node: c.Node, Time: c.Time, Op: ChurnLeave}})
	}
	for _, ev := range churn {
		if ev.Node < 0 || int(ev.Node) >= n {
			return nil, fmt.Errorf("%w: node %d out of range", ErrBadChurn, ev.Node)
		}
		sched = append(sched, churnRec{ev: ev})
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].ev.Time < sched[j].ev.Time })
	a := &availTracker{
		down:       make([]bool, n),
		sched:      sched,
		joinsAfter: make([]int32, len(sched)+1),
	}
	// Backward scan: suffix join counts, and the per-node "gone for
	// good" mark on each node's final Leave.
	rejoins := make(map[graph.NodeID]bool)
	for i := len(sched) - 1; i >= 0; i-- {
		a.joinsAfter[i] = a.joinsAfter[i+1]
		switch sched[i].ev.Op {
		case ChurnJoin:
			a.joinsAfter[i]++
			rejoins[sched[i].ev.Node] = true
		case ChurnLeave:
			a.sched[i].perm = !rejoins[sched[i].ev.Node]
		}
	}
	return a, nil
}

// advance applies every event whose time is <= t, invoking apply (which
// may be nil) for each state transition. Leave events for offline nodes
// and Join events for online nodes are skipped without a callback.
func (a *availTracker) advance(t float64, apply func(ev ChurnEvent, perm bool)) {
	for a.next < len(a.sched) && a.sched[a.next].ev.Time <= t {
		rec := a.sched[a.next]
		a.next++
		v := rec.ev.Node
		switch rec.ev.Op {
		case ChurnLeave:
			if a.down[v] {
				continue
			}
			a.down[v] = true
		case ChurnJoin:
			if !a.down[v] {
				continue
			}
			a.down[v] = false
		}
		if apply != nil {
			apply(rec.ev, rec.perm)
		}
	}
}

// alive reports whether v is currently online. A nil tracker means no
// schedule: use the package-level aliveIn helper on possibly-nil
// trackers.
func (a *availTracker) alive(v graph.NodeID) bool { return !a.down[v] }

// hasFutureJoin reports whether any Join event remains unapplied: the
// offline set can still shrink, so a stalled rumor may yet resume.
func (a *availTracker) hasFutureJoin() bool {
	return a != nil && a.joinsAfter[a.next] > 0
}

// aliveIn reports liveness under a possibly-nil tracker.
func aliveIn(a *availTracker, v graph.NodeID) bool {
	return a == nil || !a.down[v]
}

// reset restores the tracker to its initial (pre-simulation) state,
// reusing storage.
func (a *availTracker) reset() {
	clear(a.down)
	a.next = 0
}

// progressPossible reports whether any transmission can still occur on
// the current graph and offline set: some online uninformed node has an
// online informed neighbor. It compacts the boundary as a side effect.
// Callers with Join events still pending must also consult
// hasFutureJoin, and dynamic-topology runs must not use this at all —
// a future graph may reconnect the rumor.
func progressPossible(st *spreadState, a *availTracker) bool {
	st.mustTrack("progressPossible")
	st.compactBoundary()
	for _, v := range st.boundary {
		if !aliveIn(a, v) {
			continue
		}
		for _, w := range st.g.Neighbors(v) {
			if st.informed.get(w) && aliveIn(a, w) {
				return true
			}
		}
	}
	return false
}

// gatherSources validates and deduplicates {src} ∪ extra.
func gatherSources(g *graph.Graph, src graph.NodeID, extra []graph.NodeID) ([]graph.NodeID, error) {
	n := g.NumNodes()
	sources := make([]graph.NodeID, 0, 1+len(extra))
	seen := make(map[graph.NodeID]bool, 1+len(extra))
	for _, s := range append([]graph.NodeID{src}, extra...) {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("%w: %d (n=%d)", ErrBadSource, s, n)
		}
		if !seen[s] {
			seen[s] = true
			sources = append(sources, s)
		}
	}
	return sources, nil
}

// newSpreadState returns the state with the sources informed at time 0
// and reachability taken from their union. tracked says whether the
// engine has a reader for the uninformed boundary.
func newSpreadState(g *graph.Graph, sources []graph.NodeID, tracked bool) *spreadState {
	s := &spreadState{g: g, tracked: tracked}
	s.reset(sources, reachableFrom(g, sources))
	return s
}

// reachableFrom returns the size of the union of the sources' connected
// components: n on a connected graph (an answer the graph remembers, so
// the trials compiled on one graph search it once between them), a
// multi-source search otherwise.
func reachableFrom(g *graph.Graph, sources []graph.NodeID) int {
	if graph.IsConnected(g) {
		return g.NumNodes()
	}
	return graph.Reachable(g, sources)
}
