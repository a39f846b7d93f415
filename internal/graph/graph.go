// Package graph provides the graph substrate for the rumor spreading
// simulations: a compact immutable CSR (compressed sparse row)
// representation of simple undirected graphs, a builder, deterministic and
// random graph families (including the adversarial families discussed in
// the paper), and structural analysis helpers (BFS, diameter, regularity).
package graph

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rumor/internal/xrand"
)

// NodeID identifies a vertex; vertices are numbered 0..n-1.
type NodeID = int32

// Common construction errors.
var (
	ErrSelfLoop     = errors.New("graph: self-loop")
	ErrOutOfRange   = errors.New("graph: node out of range")
	ErrInvalidParam = errors.New("graph: invalid parameter")
)

// Graph is an immutable simple undirected graph in CSR form. Each
// undirected edge {u, v} is stored twice (u's and v's adjacency lists);
// adjacency lists are sorted ascending.
//
// Construct with a Builder or one of the family constructors. The zero
// value is the empty graph.
type Graph struct {
	offsets []int64
	adj     []NodeID
	name    string
	// connected memoizes IsConnected: 0 until it has been asked.
	connected atomic.Int32
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Name returns the label assigned at construction (e.g. "hypercube(10)").
func (g *Graph) Name() string { return g.name }

// Degree returns the degree of v.
func (g *Graph) Degree(v NodeID) int32 {
	return int32(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns v's adjacency list, sorted ascending. The slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Neighbor returns v's i-th neighbor (0-based, in sorted order).
func (g *Graph) Neighbor(v NodeID, i int32) NodeID {
	return g.adj[g.offsets[v]+int64(i)]
}

// RandomNeighbor returns a uniformly random neighbor of v.
// It panics if v has no neighbors.
func (g *Graph) RandomNeighbor(v NodeID, rng *xrand.RNG) NodeID {
	deg := g.offsets[v+1] - g.offsets[v]
	if deg == 0 {
		panic(fmt.Sprintf("graph: RandomNeighbor of isolated node %d", v))
	}
	return g.adj[g.offsets[v]+int64(rng.Uint64n(uint64(deg)))]
}

// HasEdge reports whether {u, v} is an edge, by binary search in u's
// adjacency list.
func (g *Graph) HasEdge(u, v NodeID) bool {
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// Edges calls fn once per undirected edge {u, v} with u < v.
func (g *Graph) Edges(fn func(u, v NodeID)) {
	n := g.NumNodes()
	for u := NodeID(0); int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				fn(u, v)
			}
		}
	}
}

// Regularity returns (d, true) if every vertex has degree d, and
// (0, false) otherwise. The empty graph is reported as regular of degree 0.
func (g *Graph) Regularity() (int32, bool) {
	n := g.NumNodes()
	if n == 0 {
		return 0, true
	}
	d := g.Degree(0)
	for v := NodeID(1); int(v) < n; v++ {
		if g.Degree(v) != d {
			return 0, false
		}
	}
	return d, true
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	name := g.name
	if name == "" {
		name = "graph"
	}
	return fmt.Sprintf("%s{n=%d, m=%d}", name, g.NumNodes(), g.NumEdges())
}

// Builder accumulates edges and produces an immutable Graph. Adding the
// same undirected edge twice, in either direction and any order, is
// tolerated (deduplicated at Build); self loops are rejected
// immediately.
//
// Edges are staged in fixed-size chunks rather than one growing slice, so
// recording m edges never re-copies the whole edge list, and Build
// releases each chunk as soon as every worker has scattered it into the
// CSR arrays — the peak footprint stays near the final graph size even
// at n = 10^7.
type Builder struct {
	n      int
	chunks [][][2]NodeID
	name   string
	err    error
	// last is the previous edge recorded; unordered is set by the first
	// edge that is not u < v and strictly after last in (u, v) order.
	// Generators that walk the pair sequence (GNP, Complete) never set
	// it, and Build then has no list to sort.
	last      [2]NodeID
	unordered bool
}

// builderChunkEdges is the capacity of every staging chunk after the
// first (the first chunk grows by appending, so small graphs stay small).
const builderChunkEdges = 1 << 15

// NewBuilder returns a builder for a graph on n vertices (n >= 0).
func NewBuilder(n int) *Builder {
	b := &Builder{n: n}
	if n < 0 {
		b.err = fmt.Errorf("%w: negative node count %d", ErrInvalidParam, n)
	}
	return b
}

// SetName labels the resulting graph.
func (b *Builder) SetName(name string) *Builder {
	b.name = name
	return b
}

// AddEdge records the undirected edge {u, v}. Errors (self loop, out of
// range) are deferred and reported by Build.
func (b *Builder) AddEdge(u, v NodeID) *Builder {
	if b.err != nil {
		return b
	}
	if u == v {
		b.err = fmt.Errorf("%w: {%d,%d}", ErrSelfLoop, u, v)
		return b
	}
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		b.err = fmt.Errorf("%w: {%d,%d} with n=%d", ErrOutOfRange, u, v, b.n)
		return b
	}
	last := len(b.chunks) - 1
	if last < 0 {
		b.chunks = append(b.chunks, make([][2]NodeID, 0, 16))
		last = 0
	} else if len(b.chunks[last]) >= builderChunkEdges {
		b.chunks = append(b.chunks, make([][2]NodeID, 0, builderChunkEdges))
		last++
	}
	// The zero last edge {0, 0} precedes every u < v edge, so the first
	// edge needs no case of its own.
	if u >= v || u < b.last[0] || (u == b.last[0] && v <= b.last[1]) {
		b.unordered = true
	}
	b.last = [2]NodeID{u, v}
	b.chunks[last] = append(b.chunks[last], b.last)
	return b
}

// Build produces the immutable graph, deduplicating parallel edges.
//
// Construction is streamed: a degree-counting pass over the staged
// chunks, a prefix sum into the offsets array, and a scatter pass that
// frees each chunk once consumed. If every edge arrived as u < v in
// strictly increasing (u, v) order, the scatter filled each list with
// its smaller neighbours ascending and then its larger ones ascending,
// nothing repeated, and Build is done. Any other input gets a
// per-vertex sort+dedup that compacts the adjacency array in place. No
// global edge sort, no doubling copy.
//
// From buildParallelMinEdges (1<<18) staged edges on, where one and two
// workers are level on a 2-vCPU host, the count pass and the scatter run
// on GOMAXPROCS workers (see build); the arrays are the same bytes
// whatever the worker count.
func (b *Builder) Build() (*Graph, error) {
	return b.build(buildWorkers(b.staged()))
}

// buildParallelMinEdges is the staged edge count from which Build
// spreads its count pass and scatter over the cores. Below it the
// goroutines, the extra count arrays and every worker's read of every
// chunk cost more than the halved passes save: on an idle 2-vCPU host
// BenchmarkBuildWorkers has one worker ahead at 1<<17 edges (1.65 ms
// against 1.86), the two level at 1<<18 (4.72 against 4.40) and two
// workers ahead at 1<<19 (13.3 against 8.6). With the other core kept
// busy two workers are behind at every size measured, 1<<17 to 1<<21
// (60 ms against 86 at 1<<21): Build is not told whether the cores are
// idle, so the gate is the idle crossover. No graph of the quick suite
// stages as many as 1<<15 edges.
const buildParallelMinEdges = 1 << 18

// buildWorkers is Build's worker count for a builder holding edges
// staged edges: GOMAXPROCS from buildParallelMinEdges on, else 1.
func buildWorkers(edges int) int {
	if edges < buildParallelMinEdges {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// staged returns the number of edges recorded so far.
func (b *Builder) staged() int {
	m := 0
	for _, c := range b.chunks {
		m += len(c)
	}
	return m
}

// build is Build on w workers (w >= 1). Worker k counts the degrees of
// its share of the chunks, into offsets (k = 0) or a count array of its
// own; the scatter gives each worker a range of target vertices holding
// an equal share of the adjacency slots, and every worker scans every
// chunk in order, writing only into its own range. So every list is
// filled in stream order, as one worker fills it, for any input. A
// chunk is released once every worker is past it.
func (b *Builder) build(w int) (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	chunks := b.chunks
	b.chunks = nil
	offsets := make([]int64, b.n+1)
	counts := make([][]int64, w)
	counts[0] = offsets[1:]
	forWorkers(w, func(k int) {
		if k > 0 {
			counts[k] = make([]int64, b.n)
		}
		cnt := counts[k]
		for _, c := range chunks[k*len(chunks)/w : (k+1)*len(chunks)/w] {
			for _, e := range c {
				cnt[e[0]]++
				cnt[e[1]]++
			}
		}
	})
	for v := 0; v < b.n; v++ {
		for _, cnt := range counts[1:] {
			offsets[v+1] += cnt[v]
		}
		offsets[v+1] += offsets[v]
	}
	clear(counts[1:]) // collectable before adj is allocated
	adj := make([]NodeID, offsets[b.n])
	cursor := make([]int64, b.n)
	copy(cursor, offsets[:b.n])
	// Worker k's range starts at the first vertex whose list starts at
	// or after k/w of the slots; a vertex whose list is longer than a
	// share leaves the next range empty.
	bounds := make([]NodeID, w+1)
	for k := 1; k < w; k++ {
		slot := offsets[b.n] * int64(k) / int64(w)
		bounds[k] = NodeID(sort.Search(b.n, func(v int) bool { return offsets[v] >= slot }))
	}
	bounds[w] = NodeID(b.n)
	passed := make([]atomic.Int32, len(chunks))
	forWorkers(w, func(k int) {
		lo, span := bounds[k], uint32(bounds[k+1]-bounds[k])
		for i, c := range chunks {
			for _, e := range c {
				if u := e[0]; uint32(u-lo) < span {
					adj[cursor[u]] = e[1]
					cursor[u]++
				}
				if v := e[1]; uint32(v-lo) < span {
					adj[cursor[v]] = e[0]
					cursor[v]++
				}
			}
			if passed[i].Add(1) == int32(w) {
				chunks[i] = nil // every worker is past it; release before the sort pass
			}
		}
	})
	if !b.unordered {
		return &Graph{offsets: offsets, adj: adj, name: b.name}, nil
	}
	// Sort each adjacency list and drop duplicate edges, compacting in
	// place: the write cursor never passes the read position.
	var wr int64
	for v := 0; v < b.n; v++ {
		start, end := offsets[v], offsets[v+1]
		seg := adj[start:end]
		slices.Sort(seg)
		offsets[v] = wr
		last := NodeID(-1)
		for _, x := range seg {
			if x != last {
				adj[wr] = x
				wr++
				last = x
			}
		}
	}
	offsets[b.n] = wr
	return &Graph{offsets: offsets, adj: adj[:wr:wr], name: b.name}, nil
}

// forWorkers runs fn(0), …, fn(w-1), fn(0) on the calling goroutine and
// the rest on goroutines of their own, and returns when all have
// returned. With w = 1 it is a plain call.
func forWorkers(w int, fn func(k int)) {
	if w == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func() {
			defer wg.Done()
			fn(k)
		}()
	}
	fn(0)
	wg.Wait()
}

// MustBuild is Build for graphs constructed from trusted static inputs;
// it panics on error. Intended for package-internal family constructors
// whose parameters have already been validated.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
