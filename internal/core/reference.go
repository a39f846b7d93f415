package core

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// RunSyncReference executes the synchronous process by the literal
// Section 2 semantics: EVERY node contacts a uniformly random neighbor
// every round, and a transmission happens when exactly one endpoint of a
// contact was informed before the round.
//
// This is the executable specification. The production engine (RunSync)
// simulates only contacts that can matter — informed callers for push,
// boundary callers for pull — which is distribution-preserving but not
// obviously so; the test suite verifies the two engines' spreading-time
// laws are statistically indistinguishable, and the benchmark suite
// quantifies the optimization.
//
// The oracle deliberately shares no state machinery with the optimized
// engines: informed/boundary tracking is plain bool slices and per-draw
// RNG calls, so a bug in the bitset arenas or batched draw paths cannot
// hide in both engines at once.
//
// Cost is Θ(n) per round regardless of progress, so use it on small
// graphs only.
func RunSyncReference(g *graph.Graph, src graph.NodeID, cfg SyncConfig, rng *xrand.RNG) (*SyncResult, error) {
	if err := CheckScenario(cfg, 0, false, false); err != nil {
		return nil, err
	}
	if err := checkStart(g, src); err != nil {
		return nil, err
	}
	prob := cmp.Or(cfg.TransmitProb, 1)
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultMaxRounds(g.NumNodes())
	}
	n := g.NumNodes()
	sources, err := gatherSources(g, src, cfg.ExtraSources)
	if err != nil {
		return nil, err
	}
	if len(cfg.Churn) > 0 {
		return nil, fmt.Errorf("%w: the reference engine does not model churn", ErrBadChurn)
	}
	crashes, err := newAvailTracker(n, cfg.Crashes, nil)
	if err != nil {
		return nil, err
	}

	informed := make([]bool, n)
	parent := make([]graph.NodeID, n)
	informedAt := make([]int32, n)
	for i := range parent {
		parent[i] = -1
		informedAt[i] = -1
	}
	num := 0
	inform := func(v, from graph.NodeID, round int) {
		informed[v] = true
		parent[v] = from
		informedAt[v] = int32(round)
		num++
		if cfg.Observer != nil {
			cfg.Observer.OnInformed(float64(round), v, from)
		}
	}
	for _, s := range sources {
		inform(s, -1, 0)
	}

	// Reachable-set size via a plain bool-slice BFS (independent of the
	// engines' bitset machinery).
	reachable := 0
	{
		visited := make([]bool, n)
		queue := make([]graph.NodeID, 0, n)
		for _, s := range sources {
			if !visited[s] {
				visited[s] = true
				queue = append(queue, s)
			}
		}
		for head := 0; head < len(queue); head++ {
			for _, w := range g.Neighbors(queue[head]) {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
		reachable = len(queue)
	}

	// canProgress: some alive uninformed node has an alive informed
	// neighbor (full scan; the oracle does not track a boundary).
	canProgress := func() bool {
		for v := graph.NodeID(0); int(v) < n; v++ {
			if informed[v] || !aliveIn(crashes, v) {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if informed[w] && aliveIn(crashes, w) {
					return true
				}
			}
		}
		return false
	}

	doPush := cfg.Protocol == Push || cfg.Protocol == PushPull
	doPull := cfg.Protocol == Pull || cfg.Protocol == PushPull

	result := func(round int, updates int64) *SyncResult {
		return &SyncResult{
			Rounds:      round,
			InformedAt:  informedAt,
			Parent:      parent,
			NumInformed: num,
			Complete:    num == n,
			Updates:     updates,
		}
	}

	type pending struct{ v, from graph.NodeID }
	var newly []pending
	round := 0
	var updates int64
	for num < reachable {
		if crashes != nil {
			crashes.advance(float64(round+1), nil)
			if !canProgress() {
				break
			}
		}
		if round >= maxRounds {
			return result(round, updates), fmt.Errorf("%w: %d rounds (reference sync %v on %v)", ErrBudget, round, cfg.Protocol, g)
		}
		round++
		newly = newly[:0]
		// The literal protocol: all n nodes contact simultaneously.
		updates += int64(n)
		for v := graph.NodeID(0); int(v) < n; v++ {
			if g.Degree(v) == 0 || !aliveIn(crashes, v) {
				continue
			}
			w := g.RandomNeighbor(v, rng)
			if !aliveIn(crashes, w) {
				continue
			}
			vInf, wInf := informed[v], informed[w]
			if vInf == wInf {
				continue
			}
			switch {
			case vInf && doPush:
				if prob >= 1 || rng.Bernoulli(prob) {
					newly = append(newly, pending{w, v})
				}
			case wInf && doPull:
				if prob >= 1 || rng.Bernoulli(prob) {
					newly = append(newly, pending{v, w})
				}
			}
		}
		for _, p := range newly {
			if informed[p.v] {
				continue
			}
			inform(p.v, p.from, round)
		}
	}
	return result(round, updates), nil
}

// refClock is one Poisson clock of an asynchronous view.
type refClock struct {
	owner  graph.NodeID // the contacting node; -1 for the global clock, which picks one per tick
	target graph.NodeID // the callee of a per-edge clock; -1 means drawn per tick
	rate   float64
	next   float64 // time of the next tick; +Inf while the owner is offline
}

// RunAsyncReference executes the asynchronous process by the literal
// Section 2 definitions, one Poisson clock record per clock of the view:
//
//   - GlobalClock: one clock of rate n; on a tick a uniformly random
//     node contacts a uniformly random neighbor.
//   - PerNodeClocks: n clocks of rate 1; on v's tick, v contacts a
//     uniformly random neighbor.
//   - PerEdgeClocks: one clock of rate 1/deg(v) per directed edge
//     (v, w); on its tick, v contacts w.
//
// The next tick is found by scanning every clock, and each clock draws
// its own inverse-CDF exponential gap. A node that crashes or leaves has
// its clocks removed, a node that rejoins starts fresh ones, and the
// crash + churn schedule is a plain time-sorted slice applied between
// ticks. The run ends the first time every node reachable from the
// sources is informed, or when nothing can be informed ever again (no
// online uninformed node has an online informed neighbor and no join is
// pending); Time is the time of the last informing.
//
// This is the executable specification of the one production engine
// (AsyncStepper, which superposes the clocks into one Exp draw and thins
// offline actors). It shares no state machinery with it — plain slices,
// no bitsets, no availability tracker, no ziggurat — and the test suite
// verifies that the two produce statistically indistinguishable
// informing times on every static scenario shape.
//
// Static topologies only; cost is Θ(clocks) per tick, so use it on small
// graphs.
func RunAsyncReference(g *graph.Graph, src graph.NodeID, cfg AsyncConfig, rng *xrand.RNG) (*AsyncResult, error) {
	if err := CheckScenario(cfg, 0, false, false); err != nil {
		return nil, err
	}
	if err := checkStart(g, src); err != nil {
		return nil, err
	}
	prob, view := cmp.Or(cfg.TransmitProb, 1), cmp.Or(cfg.View, GlobalClock)
	n := g.NumNodes()
	sources, err := gatherSources(g, src, cfg.ExtraSources)
	if err != nil {
		return nil, err
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps(n)
	}

	// The schedule: crashes are leaves that never rejoin and apply
	// before churn events of the same time.
	sched := make([]ChurnEvent, 0, len(cfg.Crashes)+len(cfg.Churn))
	for _, c := range cfg.Crashes {
		sched = append(sched, ChurnEvent{Node: c.Node, Time: c.Time, Op: ChurnLeave})
	}
	sched = append(sched, cfg.Churn...)
	for i, ev := range sched {
		if ev.Node < 0 || int(ev.Node) >= n {
			bad := ErrBadChurn
			if i < len(cfg.Crashes) {
				bad = ErrBadCrash
			}
			return nil, fmt.Errorf("%w: %+v", bad, ev)
		}
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].Time < sched[j].Time })
	joinsLeft := 0
	for _, ev := range sched {
		if ev.Op == ChurnJoin {
			joinsLeft++
		}
	}

	var clocks []refClock
	switch view {
	case GlobalClock:
		clocks = []refClock{{owner: -1, target: -1, rate: float64(n)}}
	case PerNodeClocks:
		for v := graph.NodeID(0); int(v) < n; v++ {
			clocks = append(clocks, refClock{owner: v, target: -1, rate: 1})
		}
	case PerEdgeClocks:
		for v := graph.NodeID(0); int(v) < n; v++ {
			for _, w := range g.Neighbors(v) {
				clocks = append(clocks, refClock{owner: v, target: w, rate: 1 / float64(g.Degree(v))})
			}
		}
	}
	for i := range clocks {
		clocks[i].next = rng.ExpInv(clocks[i].rate)
	}

	informed := make([]bool, n)
	down := make([]bool, n)
	parent := make([]graph.NodeID, n)
	informedAt := make([]float64, n)
	for i := range parent {
		parent[i] = -1
		informedAt[i] = -1
	}
	num := 0
	inform := func(t float64, v, from graph.NodeID) {
		informed[v] = true
		parent[v] = from
		informedAt[v] = t
		num++
		if cfg.Observer != nil {
			cfg.Observer.OnInformed(t, v, from)
		}
	}
	for _, s := range sources {
		inform(0, s, -1)
	}

	// Nodes reachable from the sources, by a plain BFS.
	visited := make([]bool, n)
	queue := append([]graph.NodeID(nil), sources...)
	for _, s := range sources {
		visited[s] = true
	}
	for head := 0; head < len(queue); head++ {
		for _, w := range g.Neighbors(queue[head]) {
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	reachable := len(queue)

	canProgress := func() bool {
		for v := graph.NodeID(0); int(v) < n; v++ {
			if informed[v] || down[v] {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if informed[w] && !down[w] {
					return true
				}
			}
		}
		return false
	}

	result := func(steps int64) *AsyncResult {
		last := 0.0
		for _, t := range informedAt {
			last = math.Max(last, t)
		}
		return &AsyncResult{
			Time:        last,
			Steps:       steps,
			InformedAt:  informedAt,
			Parent:      parent,
			NumInformed: num,
			Complete:    num == n,
		}
	}

	var steps int64
	for num < reachable {
		if joinsLeft == 0 && !canProgress() {
			break
		}
		tick := -1
		for i := range clocks {
			if !math.IsInf(clocks[i].next, 1) && (tick < 0 || clocks[i].next < clocks[tick].next) {
				tick = i
			}
		}
		if len(sched) > 0 && (tick < 0 || sched[0].Time <= clocks[tick].next) {
			ev := sched[0]
			sched = sched[1:]
			if ev.Op == ChurnJoin {
				joinsLeft--
			}
			if down[ev.Node] == (ev.Op == ChurnLeave) {
				continue // already offline, or already online
			}
			down[ev.Node] = ev.Op == ChurnLeave
			for i := range clocks {
				if clocks[i].owner != ev.Node {
					continue
				}
				if ev.Op == ChurnLeave {
					clocks[i].next = math.Inf(1)
				} else {
					clocks[i].next = ev.Time + rng.ExpInv(clocks[i].rate)
				}
			}
			if ev.DropState && informed[ev.Node] {
				informed[ev.Node] = false
				parent[ev.Node] = -1
				informedAt[ev.Node] = -1
				num--
			}
			continue
		}
		if tick < 0 {
			break // every clock is removed and no event is left
		}
		if steps >= maxSteps {
			return result(steps), fmt.Errorf("%w: %d steps (reference async %v on %v)", ErrBudget, steps, cfg.Protocol, g)
		}
		steps++
		c := &clocks[tick]
		t := c.next
		c.next = t + rng.ExpInv(c.rate)
		v, w := c.owner, c.target
		if v < 0 {
			v = graph.NodeID(rng.Uint64n(uint64(n)))
		}
		if down[v] || g.Degree(v) == 0 {
			continue
		}
		if w < 0 {
			w = g.RandomNeighbor(v, rng)
		}
		if down[w] || informed[v] == informed[w] {
			continue
		}
		if (informed[v] && cfg.Protocol == Pull) || (informed[w] && cfg.Protocol == Push) {
			continue
		}
		if prob < 1 && !rng.Bernoulli(prob) {
			continue
		}
		if informed[v] {
			inform(t, w, v)
		} else {
			inform(t, v, w)
		}
	}
	return result(steps), nil
}
