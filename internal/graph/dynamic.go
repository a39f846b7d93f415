package graph

import (
	"errors"
	"fmt"
	"math"

	"rumor/internal/xrand"
)

// Provider is a time-varying topology: a sequence of graphs over the
// same node set, indexed by simulation time. Time is divided into
// epochs of fixed length (the provider's period); within an epoch the
// graph is constant. At returns the graph in effect at time t and
// whether it differs from the previously returned graph, so callers
// can rebind incrementally maintained state only on transitions.
//
// Providers are deterministic: the graph at epoch e is a pure function
// of the provider's construction parameters, never of the simulation
// driving it. They are stateful cursors, not shared values — each
// concurrent simulation needs its own Provider. Between Resets, At
// must be called with non-decreasing t.
//
// Errors while materializing an epoch (a generator failure, a node
// count drift) are deferred: At keeps returning the last good graph
// and Err reports the failure, so hot loops stay branch-light and the
// driver checks Err once per round or at the end of a trial.
type Provider interface {
	// NumNodes returns the (constant) node count of every graph in the
	// sequence.
	NumNodes() int
	// At returns the graph in effect at time t >= 0 and whether it
	// changed since the previous At call (always false on the first
	// call, which returns the epoch-0 graph).
	At(t float64) (*Graph, bool)
	// Reset rewinds the provider to epoch 0 for a fresh trial. The
	// sequence replayed after a Reset is identical.
	Reset()
	// Err returns the first epoch-materialization failure, or nil.
	Err() error
}

// ErrDynamic reports an invalid dynamic-topology configuration.
var ErrDynamic = errors.New("graph: invalid dynamic topology")

// epochOf maps a time to its epoch index.
func epochOf(t, period float64) uint64 {
	if t <= 0 {
		return 0
	}
	return uint64(math.Floor(t / period))
}

// mix64 is a splitmix64-style combiner used to derive independent
// per-epoch seeds from one topology seed.
func mix64(seed uint64, v uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15 + v*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Static wraps a fixed graph as a Provider: every epoch is the same
// graph. Engines special-case static topologies; this exists so code
// written against Provider handles the static case uniformly.
type Static struct{ g *Graph }

// NewStatic returns the constant topology g.
func NewStatic(g *Graph) *Static { return &Static{g: g} }

// NumNodes implements Provider.
func (s *Static) NumNodes() int { return s.g.NumNodes() }

// At implements Provider; the graph never changes.
func (s *Static) At(float64) (*Graph, bool) { return s.g, false }

// Reset implements Provider.
func (s *Static) Reset() {}

// Err implements Provider.
func (s *Static) Err() error { return nil }

// Resample is the fresh-graph-per-epoch dynamic topology: epoch 0 is
// the base graph and every later epoch e is built independently by the
// build function (typically the same random family re-seeded per
// epoch, e.g. a fresh G(n,p) each round). This is the edge-dynamic
// model of Pourmiri & Mans, where the network is re-drawn faster than
// the rumor spreads.
type Resample struct {
	base   *Graph
	period float64
	build  func(epoch uint64) (*Graph, error)
	cur    *Graph
	epoch  uint64
	err    error
}

// NewResample returns a resampling topology over base with the given
// epoch length. build materializes epoch e >= 1 and must be a pure
// function of e producing graphs on the same node set.
func NewResample(base *Graph, period float64, build func(epoch uint64) (*Graph, error)) (*Resample, error) {
	if base == nil || base.NumNodes() == 0 {
		return nil, fmt.Errorf("%w: resample needs a non-empty base graph", ErrDynamic)
	}
	if !(period > 0) || math.IsInf(period, 0) {
		return nil, fmt.Errorf("%w: resample period %v", ErrDynamic, period)
	}
	if build == nil {
		return nil, fmt.Errorf("%w: resample needs a build function", ErrDynamic)
	}
	return &Resample{base: base, period: period, build: build, cur: base}, nil
}

// NumNodes implements Provider.
func (r *Resample) NumNodes() int { return r.base.NumNodes() }

// At implements Provider. Each epoch is built at most once per visit;
// because epochs are independent, skipped epochs are never
// materialized.
func (r *Resample) At(t float64) (*Graph, bool) {
	if r.err != nil {
		return r.cur, false
	}
	e := epochOf(t, r.period)
	if e == r.epoch {
		return r.cur, false
	}
	if e == 0 {
		r.cur, r.epoch = r.base, 0
		return r.cur, true
	}
	g, err := r.build(e)
	if err != nil {
		r.err = fmt.Errorf("graph: resample epoch %d: %w", e, err)
		return r.cur, false
	}
	if g.NumNodes() != r.base.NumNodes() {
		r.err = fmt.Errorf("%w: resample epoch %d has %d nodes, base has %d",
			ErrDynamic, e, g.NumNodes(), r.base.NumNodes())
		return r.cur, false
	}
	r.cur, r.epoch = g, e
	return r.cur, true
}

// Reset implements Provider.
func (r *Resample) Reset() {
	r.cur, r.epoch, r.err = r.base, 0, nil
}

// Err implements Provider.
func (r *Resample) Err() error { return r.err }

// Perturb is the edge-Markovian dynamic topology: each epoch evolves
// from the previous one by flipping edges. Every present edge is
// dropped with probability rate, and every vertex pair becomes an edge
// with probability rate times the base graph's edge density, so the
// expected density is (approximately) preserved while the edge set
// mixes at the given rate. Epoch 0 is the base graph; epoch e is a
// deterministic function of (base, seed, e), with skipped epochs
// evolved through so the sequence does not depend on when it is
// sampled.
type Perturb struct {
	base    *Graph
	period  float64
	rate    float64
	density float64
	seed    uint64
	cur     *Graph
	epoch   uint64
	err     error
}

// NewPerturb returns an edge-Markovian topology over base. rate is the
// per-epoch flip rate in (0, 1]; seed drives the (trial-independent)
// evolution.
func NewPerturb(base *Graph, period, rate float64, seed uint64) (*Perturb, error) {
	if base == nil || base.NumNodes() == 0 {
		return nil, fmt.Errorf("%w: perturb needs a non-empty base graph", ErrDynamic)
	}
	if !(period > 0) || math.IsInf(period, 0) {
		return nil, fmt.Errorf("%w: perturb period %v", ErrDynamic, period)
	}
	if !(rate > 0 && rate <= 1) {
		return nil, fmt.Errorf("%w: perturb rate %v outside (0, 1]", ErrDynamic, rate)
	}
	n := base.NumNodes()
	density := 0.0
	if n > 1 {
		density = 2 * float64(base.NumEdges()) / (float64(n) * float64(n-1))
	}
	return &Perturb{base: base, period: period, rate: rate, density: density, seed: seed, cur: base}, nil
}

// NumNodes implements Provider.
func (p *Perturb) NumNodes() int { return p.base.NumNodes() }

// At implements Provider.
func (p *Perturb) At(t float64) (*Graph, bool) {
	if p.err != nil {
		return p.cur, false
	}
	e := epochOf(t, p.period)
	if e == p.epoch {
		return p.cur, false
	}
	if e < p.epoch {
		// Defensive: replay from the base (the evolution is sequential).
		p.cur, p.epoch = p.base, 0
		if e == 0 {
			return p.cur, true
		}
	}
	for p.epoch < e {
		next, err := p.evolve(p.cur, p.epoch+1)
		if err != nil {
			p.err = fmt.Errorf("graph: perturb epoch %d: %w", p.epoch+1, err)
			return p.cur, false
		}
		p.cur = next
		p.epoch++
	}
	return p.cur, true
}

// evolve builds epoch e from the previous epoch's graph.
func (p *Perturb) evolve(prev *Graph, e uint64) (*Graph, error) {
	rng := xrand.New(mix64(p.seed, e))
	n := prev.NumNodes()
	b := NewBuilder(n).SetName(prev.Name())
	prev.Edges(func(u, v NodeID) {
		if p.rate < 1 && !rng.Bernoulli(p.rate) {
			b.AddEdge(u, v)
		}
	})
	// Fresh edges arrive over all pairs; the builder deduplicates the
	// overlap with kept edges, which re-asserts (rather than toggles)
	// those pairs — a slight bias toward the base density that keeps
	// the process simple and stationary enough for the experiments.
	addPairsBernoulli(b, n, p.rate*p.density, rng)
	return b.Build()
}

// Reset implements Provider.
func (p *Perturb) Reset() {
	p.cur, p.epoch, p.err = p.base, 0, nil
}

// Err implements Provider.
func (p *Perturb) Err() error { return p.err }
