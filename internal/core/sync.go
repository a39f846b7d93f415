package core

import (
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// defaultMaxRounds returns a generous cap on synchronous rounds: far above
// any realistic spreading time (which is O(n log n) even for push on the
// star), yet finite so that buggy or lossy configurations terminate.
func defaultMaxRounds(n int) int {
	if n < 2 {
		return 1
	}
	limit := 400 * n * ilog2(n)
	if limit < 10000 {
		limit = 10000
	}
	return limit
}

// ilog2 returns floor(log2(n)) + 1 for n >= 1.
func ilog2(n int) int {
	l := 0
	for n > 0 {
		n >>= 1
		l++
	}
	return l
}

// RunSync executes a synchronous rumor spreading process (pp with the
// configured protocol) from src and returns the result.
//
// Semantics follow the paper exactly: in every round each node contacts a
// uniformly random neighbor; transmissions in a round are based on the
// informed set before the round (new informings take effect at the end of
// the round). Only contacts that can matter are simulated: informed
// callers for push, uninformed boundary callers for pull; this is
// distribution-preserving because other contacts never transmit.
//
// If the round budget is exhausted, the partial result is returned
// together with an error wrapping ErrBudget.
func RunSync(g *graph.Graph, src graph.NodeID, cfg SyncConfig, rng *xrand.RNG) (*SyncResult, error) {
	return RunSyncTopo(graph.NewStatic(g), src, cfg, rng)
}

// RunSyncTopo is RunSync over a time-varying topology: round r executes
// on topo's graph at time r-1. A topology materialization failure is
// returned as an error alongside the partial result.
func RunSyncTopo(topo graph.Provider, src graph.NodeID, cfg SyncConfig, rng *xrand.RNG) (*SyncResult, error) {
	out, err := runOnce(topo, src, cfg, 0, false, rng)
	return out.Sync, err
}

// SyncSpreadingTime runs pp with the given protocol and returns only
// T(α, G, u): the number of rounds before all nodes are informed.
// It returns an error if the graph is disconnected (the spreading time is
// infinite) or the budget is exhausted.
func SyncSpreadingTime(g *graph.Graph, src graph.NodeID, p Protocol, rng *xrand.RNG) (int, error) {
	out, err := runOnce(graph.NewStatic(g), src, SyncConfig{Protocol: p}, 0, false, rng)
	if err != nil {
		return 0, err
	}
	rounds, err := out.SpreadingTime()
	return int(rounds), err
}
