// Package rumor is a simulation library for randomized rumor spreading,
// reproducing "How Asynchrony Affects Rumor Spreading Time" (Giakkoupis,
// Nazari, Woelfel; PODC 2016).
//
// The library provides:
//
//   - exact simulators for the synchronous push, pull, and push-pull
//     protocols and their asynchronous Poisson-clock variants (in the
//     paper's three equivalent views);
//   - the paper's auxiliary processes ppx and ppy (Definitions 5 and 7);
//   - executable versions of both coupling constructions (the Section 4
//     upper-bound ladder and the Section 5 block decomposition);
//   - graph generators for the families the paper discusses, including
//     the adversarial diamond chain with the extremal sync/async gap;
//   - a deterministic parallel experiment harness, statistics, and the
//     experiment suite that regenerates every claim (see the
//     README's "Experiments — CLI and service" section).
//
// Quickstart:
//
//	g, _ := rumor.Hypercube(10)
//	rng := rumor.NewRNG(42)
//	sync, _ := rumor.RunSync(g, 0, rumor.SyncConfig{Protocol: rumor.PushPull}, rng)
//	async, _ := rumor.RunAsync(g, 0, rumor.AsyncConfig{Protocol: rumor.PushPull}, rng)
//	fmt.Printf("sync %d rounds, async %.2f time units\n", sync.Rounds, async.Time)
//
// All simulations are deterministic functions of (graph, source, config,
// seed); see MeasureSync and MeasureAsync for parallel multi-trial
// measurement.
package rumor

import (
	"rumor/internal/core"
	"rumor/internal/coupling"
	"rumor/internal/graph"
	"rumor/internal/spectral"
	"rumor/internal/xrand"
)

// Core protocol types, re-exported from the engine.
type (
	// Graph is an immutable simple undirected graph in CSR form.
	Graph = graph.Graph
	// NodeID identifies a vertex (0..n-1).
	NodeID = graph.NodeID
	// Builder accumulates edges and produces a Graph.
	Builder = graph.Builder
	// RNG is the deterministic random number generator used everywhere.
	RNG = xrand.RNG
	// Protocol selects push, pull, or push-pull communication.
	Protocol = core.Protocol
	// AsyncView selects among the three equivalent pp-a implementations.
	AsyncView = core.AsyncView
	// PPVariant selects the paper's auxiliary process ppx or ppy.
	PPVariant = core.PPVariant
	// SyncConfig configures a synchronous run.
	SyncConfig = core.SyncConfig
	// AsyncConfig configures an asynchronous run.
	AsyncConfig = core.AsyncConfig
	// SyncResult reports a synchronous run.
	SyncResult = core.SyncResult
	// AsyncResult reports an asynchronous run.
	AsyncResult = core.AsyncResult
	// Observer receives informing events during a run.
	Observer = core.Observer
	// UpperCouplingResult reports one run of the Section 4 coupling.
	UpperCouplingResult = coupling.UpperResult
	// LowerCouplingResult reports one run of the Section 5 coupling.
	LowerCouplingResult = coupling.LowerResult
	// SyncStepper advances a synchronous process one round at a time.
	SyncStepper = core.SyncStepper
	// AsyncStepper advances an asynchronous process one tick at a time.
	AsyncStepper = core.AsyncStepper
	// Crash schedules a fail-stop node failure (extension).
	Crash = core.Crash
)

// Protocol constants.
const (
	// Push: informed callers push the rumor to their callee.
	Push = core.Push
	// Pull: uninformed callers pull the rumor from informed callees.
	Pull = core.Pull
	// PushPull: bidirectional exchange.
	PushPull = core.PushPull
)

// Asynchronous view constants (all distributionally identical).
const (
	// GlobalClock: one rate-n Poisson clock; O(1) per step.
	GlobalClock = core.GlobalClock
	// PerNodeClocks: one rate-1 clock per node.
	PerNodeClocks = core.PerNodeClocks
	// PerEdgeClocks: one rate-1/deg(v) clock per directed edge.
	PerEdgeClocks = core.PerEdgeClocks
)

// Auxiliary process constants (Definitions 5 and 7).
const (
	// PPX pulls with probability 1 once half the neighborhood is informed.
	PPX = core.PPX
	// PPY always pulls with probability 1 - e^{-2k/deg}.
	PPY = core.PPY
)

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed uint64) *RNG { return xrand.New(seed) }

// NewBuilder returns a graph builder for n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// RunSync executes a synchronous rumor spreading process.
func RunSync(g *Graph, src NodeID, cfg SyncConfig, rng *RNG) (*SyncResult, error) {
	return core.RunSync(g, src, cfg, rng)
}

// RunAsync executes an asynchronous rumor spreading process.
func RunAsync(g *Graph, src NodeID, cfg AsyncConfig, rng *RNG) (*AsyncResult, error) {
	return core.RunAsync(g, src, cfg, rng)
}

// RunPPVariant executes the paper's auxiliary process ppx or ppy.
func RunPPVariant(g *Graph, src NodeID, v PPVariant, cfg SyncConfig, rng *RNG) (*SyncResult, error) {
	return core.RunPPVariant(g, src, v, cfg, rng)
}

// SyncSpreadingTime returns T(protocol, G, u) in rounds.
func SyncSpreadingTime(g *Graph, src NodeID, p Protocol, rng *RNG) (int, error) {
	return core.SyncSpreadingTime(g, src, p, rng)
}

// AsyncSpreadingTime returns T(protocol-a, G, u) in time units.
func AsyncSpreadingTime(g *Graph, src NodeID, p Protocol, rng *RNG) (float64, error) {
	return core.AsyncSpreadingTime(g, src, p, rng)
}

// RunUpperCoupling executes the Section 4 coupling (ppx, ppy, pp-a on
// shared randomness) on a connected graph.
func RunUpperCoupling(g *Graph, src NodeID, seed uint64) (*UpperCouplingResult, error) {
	return coupling.RunUpper(g, src, seed)
}

// RunLowerCoupling executes the Section 5 block-decomposition coupling on
// a connected graph.
func RunLowerCoupling(g *Graph, src NodeID, seed uint64) (*LowerCouplingResult, error) {
	return coupling.RunLower(g, src, seed)
}

// RunSyncReference executes the synchronous process by the literal paper
// semantics (every node contacts every round) — the executable
// specification the optimized engine is validated against.
func RunSyncReference(g *Graph, src NodeID, cfg SyncConfig, rng *RNG) (*SyncResult, error) {
	return core.RunSyncReference(g, src, cfg, rng)
}

// NewSyncStepper prepares a synchronous process for round-by-round
// execution under caller control.
func NewSyncStepper(g *Graph, src NodeID, cfg SyncConfig, rng *RNG) (*SyncStepper, error) {
	return core.NewSyncStepper(g, src, cfg, rng)
}

// NewAsyncStepper prepares an asynchronous process (global-clock view)
// for tick-by-tick execution under caller control. The stepper draws
// ticks ahead of the ones it has executed, so rng is its own until Step
// returns false; it is then where a tick-at-a-time run leaves it.
func NewAsyncStepper(g *Graph, src NodeID, cfg AsyncConfig, rng *RNG) (*AsyncStepper, error) {
	return core.NewAsyncStepper(g, src, cfg, rng)
}

// SpectralGapLazy estimates 1 - λ₂ of the lazy random walk on g (power
// iteration); via Cheeger's inequality it brackets the conductance Φ,
// which bounds rumor spreading times (and, by Theorem 1, carries over to
// the asynchronous protocol).
func SpectralGapLazy(g *Graph, iters int, rng *RNG) (float64, error) {
	return spectral.SpectralGapLazy(g, iters, rng)
}

// ConductanceExact computes Φ(G) exactly for graphs with at most 24
// nodes.
func ConductanceExact(g *Graph) (float64, error) { return spectral.ConductanceExact(g) }

// CheegerBounds converts a lazy-walk spectral gap into conductance
// bounds: gap ≤ Φ ≤ 2·sqrt(gap).
func CheegerBounds(gap float64) (lo, hi float64) { return spectral.CheegerBounds(gap) }
