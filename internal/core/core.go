// Package core implements the rumor spreading processes studied in the
// paper "How Asynchrony Affects Rumor Spreading Time" (Giakkoupis, Nazari,
// Woelfel; PODC 2016):
//
//   - the synchronous push, pull, and push-pull protocols (pp), where all
//     nodes contact a uniformly random neighbor in lock-step rounds;
//   - the asynchronous variants (pp-a), where each node carries an
//     independent rate-1 Poisson clock and contacts a random neighbor on
//     each tick — implemented in the paper's three provably equivalent
//     views (per-node clocks, per-directed-edge clocks, single global
//     rate-n clock);
//   - the paper's auxiliary synchronous processes ppx and ppy
//     (Definitions 5 and 7), whose modified pull probabilities bridge pp
//     and pp-a in the upper-bound proof;
//   - literal-semantics reference engines for both timings (the
//     executable specifications that validate the optimized engines), a
//     quasirandom variant (reference [11]), and round-/tick-level
//     steppers.
//
// Every spreading-time path runs through one contract: NewTrial compiles
// a scenario to the engine that simulates it and Trial.Run replays it;
// RunSync, RunAsync, and friends are one-shot callers of it. The two
// engines are a clock and a contact rule each (lock-step rounds acting on
// the start-of-round informed set; Poisson ticks acting at once) over one
// scenario runtime, which alone knows the sources, the crash/churn
// schedule, when the rumor is stranded, which graph is in effect, and
// what the observer is told.
//
// All processes are deterministic functions of (graph, source, config,
// RNG seed) and support trace observers, partial-coverage queries,
// spreading curves, lossy transmission, multi-source starts, and
// fail-stop crash injection (the latter three are extensions beyond the
// paper's model).
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// Protocol selects the communication mode of a rumor spreading process.
type Protocol int

// Communication modes (Section 1 of the paper).
const (
	// Push: an informed caller pushes the rumor to its callee.
	Push Protocol = iota + 1
	// Pull: a non-informed caller receives the rumor from an informed callee.
	Pull
	// PushPull: bidirectional exchange between caller and callee.
	PushPull
)

// String returns the conventional protocol name.
func (p Protocol) String() string {
	switch p {
	case Push:
		return "push"
	case Pull:
		return "pull"
	case PushPull:
		return "push-pull"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

func (p Protocol) valid() bool { return p >= Push && p <= PushPull }

// AsyncView selects among the paper's three equivalent implementations of
// the asynchronous process (Section 2, "alternative views").
type AsyncView int

// Equivalent asynchronous process views.
const (
	// GlobalClock: a single Poisson clock of rate n; on each tick a
	// uniformly random node takes a step.
	GlobalClock AsyncView = iota + 1
	// PerNodeClocks: one rate-1 Poisson clock per node.
	PerNodeClocks
	// PerEdgeClocks: one Poisson clock of rate 1/deg(v) per directed edge
	// (v, w); on a tick, v contacts w.
	PerEdgeClocks
)

// String returns the view name.
func (v AsyncView) String() string {
	switch v {
	case GlobalClock:
		return "global-clock"
	case PerNodeClocks:
		return "per-node-clocks"
	case PerEdgeClocks:
		return "per-edge-clocks"
	default:
		return fmt.Sprintf("AsyncView(%d)", int(v))
	}
}

func (v AsyncView) valid() bool { return v >= GlobalClock && v <= PerEdgeClocks }

// Observer receives a callback each time a node becomes informed. For
// synchronous processes time is the (integer) round number; for
// asynchronous processes it is continuous time. from is the node the
// rumor came from.
//
// Observers run on the simulation hot path; implementations should be
// fast and must not retain the arguments beyond the call.
type Observer interface {
	OnInformed(time float64, v, from graph.NodeID)
}

// Config validation errors.
var (
	ErrBadProtocol = errors.New("core: invalid protocol")
	ErrBadView     = errors.New("core: invalid async view")
	ErrBadSource   = errors.New("core: source out of range")
	ErrBadProb     = errors.New("core: transmit probability outside (0, 1]")
	ErrEmptyGraph  = errors.New("core: empty graph")
	ErrBudget      = errors.New("core: simulation budget exhausted before spreading completed")
)

// SyncConfig configures a synchronous run. Every synchronous run
// maintains the uninformed boundary — the pull half of a round iterates
// it, and under Crashes or Churn the strandedness scan and amnesiac
// rejoins read it; informed-neighbor counts are kept for ppx/ppy alone.
type SyncConfig struct {
	// Protocol is Push, Pull, or PushPull.
	Protocol Protocol
	// MaxRounds caps the simulation; 0 means an automatic generous cap.
	// Exceeding the cap returns ErrBudget (wrapped), with the partial
	// result still returned.
	MaxRounds int
	// TransmitProb is the probability a contact transmits the rumor
	// (lossy-channel extension). 0 means 1 (lossless, the paper's model).
	TransmitProb float64
	// ExtraSources are additional nodes informed at round 0 besides the
	// src argument (multi-source extension).
	ExtraSources []graph.NodeID
	// Crashes is an optional fail-stop schedule (extension): each entry
	// permanently silences a node from the given round on.
	Crashes []Crash
	// Churn is an optional join/leave schedule (extension) generalizing
	// Crashes: nodes go offline and may rejoin, with or without their
	// rumor state. Crashes and Churn merge into one schedule; crashes
	// apply first at equal times.
	Churn []ChurnEvent
	// Observer, if non-nil, receives informing events.
	Observer Observer
}

// AsyncConfig configures an asynchronous run. A tick reads only the
// informed set, so the uninformed boundary is maintained just when
// Crashes or Churn is set (the strandedness scan and amnesiac rejoins
// read it), and informed-neighbor counts never.
type AsyncConfig struct {
	// Protocol is Push, Pull, or PushPull.
	Protocol Protocol
	// View selects the implementation; 0 means GlobalClock.
	View AsyncView
	// MaxSteps caps the number of clock ticks; 0 means an automatic
	// generous cap. Exceeding it returns ErrBudget (wrapped).
	MaxSteps int64
	// TransmitProb is as in SyncConfig.
	TransmitProb float64
	// ExtraSources are additional nodes informed at time 0 besides the
	// src argument (multi-source extension).
	ExtraSources []graph.NodeID
	// Crashes is an optional fail-stop schedule (extension): each entry
	// permanently silences a node from the given time on.
	Crashes []Crash
	// Churn is an optional join/leave schedule (extension) generalizing
	// Crashes: nodes go offline and may rejoin, with or without their
	// rumor state. Crashes and Churn merge into one schedule; crashes
	// apply first at equal times. Churn requires the GlobalClock or
	// PerNodeClocks view: thinning would model per-edge clocks that
	// restart, but no golden or oracle row covers that combination yet,
	// so it stays rejected.
	Churn []ChurnEvent
	// Observer, if non-nil, receives informing events.
	Observer Observer
}

// SyncResult reports a synchronous run.
type SyncResult struct {
	// Rounds is the number of rounds executed until spreading stopped
	// (all reachable nodes informed, or the budget was hit).
	Rounds int
	// InformedAt[v] is the round in which v became informed (0 for the
	// source), or -1 if v was never informed.
	InformedAt []int32
	// Parent[v] is the node v first received the rumor from, or -1 for
	// the source and never-informed nodes.
	Parent []graph.NodeID
	// NumInformed is the number of informed nodes at the end.
	NumInformed int
	// Complete reports whether every node in the graph was informed.
	Complete bool
	// Updates is the number of node-step operations executed (push plus
	// pull contact draws over all rounds) — the work unit reported by the
	// throughput benchmarks.
	Updates int64
	// order is the informed set by informing time, as the stepper keeps
	// it, or nil (see CoverageRounds).
	order []graph.NodeID
}

// AsyncResult reports an asynchronous run.
type AsyncResult struct {
	// Time is the continuous time at which the last informing occurred.
	// On a run that stopped short — the budget ran out, or crashes or
	// churn stranded the rumor — it is the time of the last tick
	// executed instead. The strandedness scan runs every 2n+16 ticks, so
	// on a stranded run Time is the detection time, up to about two
	// time units after the last informing; max(InformedAt) is the
	// model's quantity there.
	Time float64
	// Steps is the number of clock ticks executed.
	Steps int64
	// InformedAt[v] is the time at which v became informed (0 for the
	// source), or -1 if v was never informed.
	InformedAt []float64
	// Parent[v] is the node v first received the rumor from, or -1.
	Parent []graph.NodeID
	// NumInformed is the number of informed nodes at the end.
	NumInformed int
	// Complete reports whether every node in the graph was informed.
	Complete bool
	// order is the informed set by informing time, as the stepper keeps
	// it, or nil (see CoverageTimes).
	order []graph.NodeID
}

// CoverageRound returns the first round by which at least
// ceil(frac * n) nodes were informed, or -1 if coverage was never reached.
func (r *SyncResult) CoverageRound(frac float64) int32 {
	return int32(r.CoverageRounds([]float64{frac})[0])
}

// CoverageRounds returns, for each fraction, the first round by which at
// least ceil(frac * n) nodes were informed, or -1 if that coverage was
// never reached. A stepper's result reads each answer off the informing
// order it keeps. Any other is served by one counting pass (nodes per
// round, then a running total; informing rounds lie in [0, Rounds]).
// Either way batching fractions is much cheaper than repeated
// CoverageRound calls.
func (r *SyncResult) CoverageRounds(fracs []float64) []int32 {
	n := len(r.InformedAt)
	var informedBy []int // nodes informed in round t, then by round t
	if r.order == nil {
		informedBy = make([]int, r.Rounds+1)
		for _, t := range r.InformedAt {
			if t >= 0 {
				informedBy[t]++
			}
		}
		for t := 1; t < len(informedBy); t++ {
			informedBy[t] += informedBy[t-1]
		}
	}
	out := make([]int32, len(fracs))
	for i, frac := range fracs {
		if frac <= 0 {
			continue
		}
		need := max(int(math.Ceil(frac*float64(n))), 1)
		switch {
		case r.order == nil:
			t := sort.SearchInts(informedBy, need)
			if t == len(informedBy) {
				t = -1
			}
			out[i] = int32(t)
		case need > len(r.order):
			out[i] = -1
		default:
			out[i] = r.InformedAt[r.order[need-1]]
		}
	}
	return out
}

// CoverageTime returns the earliest time by which at least ceil(frac * n)
// nodes were informed, or -1 if coverage was never reached.
func (r *AsyncResult) CoverageTime(frac float64) float64 {
	return r.CoverageTimes([]float64{frac})[0]
}

// CoverageTimes returns, for each fraction, the earliest time by which at
// least ceil(frac * n) nodes were informed, or -1 if that coverage was
// never reached. Each answer is an order statistic of the informing
// times. A stepper's result reads it off the informing order the
// stepper keeps, with no copy. Any other result finds it by selection
// over one shared copy of the times that every query leaves more
// partitioned for the next. Either way batching fractions is much
// cheaper than repeated CoverageTime calls, and nothing is sorted.
func (r *AsyncResult) CoverageTimes(fracs []float64) []float64 {
	informed := len(r.order)
	var times []float64
	if r.order == nil {
		times = make([]float64, 0, len(r.InformedAt))
		for _, t := range r.InformedAt {
			if t >= 0 {
				times = append(times, t)
			}
		}
		informed = len(times)
	}
	out := make([]float64, len(fracs))
	// times[:lo] holds the lo smallest times: a rank at or past lo is
	// looked for in the rest only, one before it in that prefix only.
	lo := 0
	for i, frac := range fracs {
		k := max(int(math.Ceil(frac*float64(len(r.InformedAt)))), 1) - 1
		switch {
		case frac <= 0:
		case k >= informed:
			out[i] = -1
		case r.order != nil:
			out[i] = r.InformedAt[r.order[k]]
		case k >= lo:
			out[i] = selectNth(times[lo:], k-lo)
			lo = k
		default:
			out[i] = selectNth(times[:lo], k)
		}
	}
	return out
}

// selectNth returns the k-th smallest element of xs (0-based), permuting
// xs so that it sits at xs[k] with nothing larger before it and nothing
// smaller after it: Hoare's FIND, expected linear time. The pivot
// position comes from a fixed multiplicative sequence, not from the
// data, so no arrangement of informing times (sorted along a path,
// rising then falling around a cycle) is a bad case; the value
// returned does not depend on the pivots.
func selectNth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for seq := uint64(1); lo < hi; {
		seq *= 0x9e3779b97f4a7c15
		pivot := xs[lo+int((seq>>33)%uint64(hi-lo+1))]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// checkStart validates what every engine needs of the graph: a node,
// and the source among them. The scenario's options are CheckScenario's.
func checkStart(g *graph.Graph, src graph.NodeID) error {
	if g.NumNodes() == 0 {
		return ErrEmptyGraph
	}
	if src < 0 || int(src) >= g.NumNodes() {
		return fmt.Errorf("%w: %d (n=%d)", ErrBadSource, src, g.NumNodes())
	}
	return nil
}

// spreadState tracks the informed set, first-informer tree, and — only
// as far as the engine built on it reads them — the uninformed boundary
// and the informed-neighbor counts. Who reads what:
//
//   - informed, parent, order, num, reachable: every engine.
//   - boundary, inBoundary (uninformed nodes with at least one informed
//     neighbor): the synchronous pull halves (pp, ppx/ppy, quasirandom),
//     and progressPossible and uninform under a crash or churn schedule.
//     An engine with none of these readers (an asynchronous run with no
//     schedule) builds the state untracked.
//   - progressPossible, uninform, rebind: the scenario runtime alone
//     (advance, applyChurn, at), whichever stepper stands on it.
//   - infNbrs: the ppx/ppy round body alone (variantRound and
//     randomInformedNeighbor); nil until keepCounts.
//
// Finding new boundary nodes means walking the adjacency list of every
// node informed — all 2m entries over a trial. outside counts the nodes
// the walk could still find; once it is 0 (on a dense graph, long before
// the trial ends) markInformed skips the walk. The readers of something
// the state does not maintain panic rather than answer from empty lists.
//
// The informed and boundary-membership sets are bit vectors, and every
// slice is an arena sized to the graph once: reset re-initializes the
// state for a fresh trial on the same graph without allocating, which is
// what lets steppers run a whole cell's trials on one set of buffers.
type spreadState struct {
	g          *graph.Graph
	informed   bitSet
	parent     []graph.NodeID
	order      []graph.NodeID // nodes in informing order; order[0] = source
	boundary   []graph.NodeID // lazily compacted; may contain stale entries
	inBoundary bitSet         // on the boundary list; stale bits of informed nodes included
	infNbrs    []int32        // per-node count of informed neighbors; nil unless kept
	tracked    bool           // boundary, inBoundary and outside are maintained
	outside    int            // nodes neither informed nor in inBoundary
	num        int
	reachable  int // size of the sources' union of connected components
}

// mustTrack panics if the boundary reader op was reached on a state that
// does not maintain the boundary.
func (s *spreadState) mustTrack(op string) {
	if !s.tracked {
		panic("core: " + op + " on a spread state that does not track its boundary")
	}
}

// mustCount panics if the count reader op was reached on a state that
// does not keep informed-neighbor counts.
func (s *spreadState) mustCount(op string) {
	if s.infNbrs == nil {
		panic("core: " + op + " on a spread state that does not count informed neighbors")
	}
}

// keepCounts makes the state maintain infNbrs from here on.
func (s *spreadState) keepCounts() {
	s.mustTrack("keepCounts")
	s.infNbrs = make([]int32, s.g.NumNodes())
	s.recount()
}

// recount rebuilds infNbrs from the informed set on the current graph.
func (s *spreadState) recount() {
	clear(s.infNbrs)
	for _, v := range s.order {
		for _, w := range s.g.Neighbors(v) {
			s.infNbrs[w]++
		}
	}
}

// reset re-initializes the state for a new trial with the given sources.
// reachable is the size of the union of the sources' components (a pure
// function of (g, sources), so callers cache it across trials).
func (s *spreadState) reset(sources []graph.NodeID, reachable int) {
	n := s.g.NumNodes()
	s.informed.reset(n)
	if cap(s.parent) < n {
		s.parent = make([]graph.NodeID, n)
		s.order = make([]graph.NodeID, 0, n)
	}
	s.parent = s.parent[:n]
	for i := range s.parent {
		s.parent[i] = -1
	}
	s.order = s.order[:0]
	if s.tracked {
		s.inBoundary.reset(n)
		if cap(s.boundary) < n {
			s.boundary = make([]graph.NodeID, 0, n)
		}
		s.boundary = s.boundary[:0]
		s.outside = n
		clear(s.infNbrs)
	}
	s.num = 0
	s.reachable = reachable
	for _, src := range sources {
		s.markInformed(src, -1)
	}
}

// markInformed adds v to the informed set and, on a tracked state, puts
// its uninformed neighbors on the boundary.
func (s *spreadState) markInformed(v, from graph.NodeID) {
	if s.informed.get(v) {
		return
	}
	s.informed.set(v)
	s.parent[v] = from
	s.order = append(s.order, v)
	s.num++
	if !s.tracked {
		return
	}
	if !s.inBoundary.get(v) {
		s.outside--
	}
	if s.infNbrs != nil {
		for _, w := range s.g.Neighbors(v) {
			s.infNbrs[w]++
		}
	}
	if s.outside == 0 {
		return // every uninformed node is on the boundary already
	}
	for _, w := range s.g.Neighbors(v) {
		if !s.informed.get(w) && !s.inBoundary.get(w) {
			s.addBoundary(w)
		}
	}
}

// addBoundary puts the outside node v on the boundary.
func (s *spreadState) addBoundary(v graph.NodeID) {
	s.inBoundary.set(v)
	s.boundary = append(s.boundary, v)
	s.outside--
}

// uninform removes v from the informed set (an amnesiac churn rejoin),
// restoring every invariant markInformed maintains: neighbor counts,
// the first-informer tree, boundary membership, and the order list
// (compacted so order stays exactly the informed set, which the push
// loop iterates). Churn schedules are short, so the O(n) compaction
// per uninform is irrelevant.
func (s *spreadState) uninform(v graph.NodeID) {
	s.mustTrack("uninform")
	if !s.informed.get(v) {
		return
	}
	s.informed.clearBit(v)
	s.parent[v] = -1
	s.num--
	hasInformed := false
	for _, w := range s.g.Neighbors(v) {
		if s.infNbrs != nil {
			s.infNbrs[w]--
		}
		hasInformed = hasInformed || s.informed.get(w)
	}
	// A bit left from v's time on the boundary means it is still listed.
	if !s.inBoundary.get(v) {
		s.outside++
		if hasInformed {
			s.addBoundary(v)
		}
	}
	live := s.order[:0]
	for _, w := range s.order {
		if w != v {
			live = append(live, w)
		}
	}
	s.order = live
}

// rebind points the state at a new graph over the same node set (a
// dynamic-topology epoch change) and, on a tracked state, rebuilds
// everything derived from adjacency: the uninformed boundary (in node-ID
// order) and the informed-neighbor counts if kept. The informed set,
// tree, and order are topology-independent and carry over. O(n + edges
// incident to informed nodes) when tracked, O(1) otherwise.
func (s *spreadState) rebind(g *graph.Graph) {
	s.g = g
	if !s.tracked {
		return
	}
	n := g.NumNodes()
	if s.infNbrs != nil {
		s.recount()
	}
	s.inBoundary.reset(n)
	for _, v := range s.order {
		for _, w := range g.Neighbors(v) {
			s.inBoundary.set(w)
		}
	}
	s.boundary = s.boundary[:0]
	s.outside = n - s.num
	for v := graph.NodeID(0); int(v) < n; v++ {
		if !s.inBoundary.get(v) {
			continue
		}
		if s.informed.get(v) {
			s.inBoundary.clearBit(v)
		} else {
			s.boundary = append(s.boundary, v)
			s.outside--
		}
	}
}

// compactBoundary drops informed entries from the boundary list.
func (s *spreadState) compactBoundary() {
	s.mustTrack("compactBoundary")
	live := s.boundary[:0]
	for _, v := range s.boundary {
		if !s.informed.get(v) {
			live = append(live, v)
		} else {
			s.inBoundary.clearBit(v)
		}
	}
	s.boundary = live
}

// done reports whether spreading can make no further progress.
func (s *spreadState) done() bool { return s.num >= s.reachable }

// randomInformedNeighbor returns a uniformly random informed neighbor of
// v, assuming it has at least one (s.infNbrs[v] >= 1).
func (s *spreadState) randomInformedNeighbor(v graph.NodeID, rng *xrand.RNG) graph.NodeID {
	s.mustCount("randomInformedNeighbor")
	k := s.infNbrs[v]
	target := rng.Int32n(k)
	for _, w := range s.g.Neighbors(v) {
		if s.informed.get(w) {
			if target == 0 {
				return w
			}
			target--
		}
	}
	panic("core: informed neighbor count out of sync")
}
