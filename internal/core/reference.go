package core

import (
	"fmt"

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
	prob, err := validateCommon(g, src, cfg.Protocol, cfg.TransmitProb)
	if err != nil {
		return nil, err
	}
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
