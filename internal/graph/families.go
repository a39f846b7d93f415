package graph

import (
	"fmt"
)

// Complete returns the complete graph K_n.
func Complete(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: Complete(%d)", ErrInvalidParam, n)
	}
	b := NewBuilder(n).SetName(fmt.Sprintf("complete(%d)", n))
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	return b.Build()
}

// Star returns the n-vertex star: node 0 is the center, nodes 1..n-1 are
// leaves. This is the paper's Section 1 example where synchronous
// push-pull needs at most 2 rounds but asynchronous push-pull needs
// Θ(log n) time.
func Star(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: Star(%d)", ErrInvalidParam, n)
	}
	b := NewBuilder(n).SetName(fmt.Sprintf("star(%d)", n))
	for v := 1; v < n; v++ {
		b.AddEdge(0, NodeID(v))
	}
	return b.Build()
}

// Path returns the path graph on n vertices (0-1-2-...-n-1).
func Path(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: Path(%d)", ErrInvalidParam, n)
	}
	b := NewBuilder(n).SetName(fmt.Sprintf("path(%d)", n))
	for v := 0; v < n-1; v++ {
		b.AddEdge(NodeID(v), NodeID(v+1))
	}
	return b.Build()
}

// Cycle returns the cycle graph on n vertices.
func Cycle(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("%w: Cycle(%d)", ErrInvalidParam, n)
	}
	b := NewBuilder(n).SetName(fmt.Sprintf("cycle(%d)", n))
	for v := 0; v < n; v++ {
		b.AddEdge(NodeID(v), NodeID((v+1)%n))
	}
	return b.Build()
}

// Hypercube returns the dim-dimensional hypercube on 2^dim vertices.
// On the hypercube, asynchronous push-pull corresponds to Richardson's
// model for the spread of a disease (see the paper's Section 1).
func Hypercube(dim int) (*Graph, error) {
	if dim < 1 || dim > 30 {
		return nil, fmt.Errorf("%w: Hypercube(%d)", ErrInvalidParam, dim)
	}
	n := 1 << dim
	b := NewBuilder(n).SetName(fmt.Sprintf("hypercube(%d)", dim))
	for v := 0; v < n; v++ {
		for bit := 0; bit < dim; bit++ {
			w := v ^ (1 << bit)
			if v < w {
				b.AddEdge(NodeID(v), NodeID(w))
			}
		}
	}
	return b.Build()
}

// Grid returns the rows x cols grid graph. If torus is true, the grid
// wraps around in both dimensions (every vertex has degree 4 when both
// dimensions are at least 3).
func Grid(rows, cols int, torus bool) (*Graph, error) {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return nil, fmt.Errorf("%w: Grid(%d,%d)", ErrInvalidParam, rows, cols)
	}
	if torus && (rows < 3 || cols < 3) {
		return nil, fmt.Errorf("%w: torus Grid(%d,%d) needs both dims >= 3", ErrInvalidParam, rows, cols)
	}
	kind := "grid"
	if torus {
		kind = "torus"
	}
	b := NewBuilder(rows * cols).SetName(fmt.Sprintf("%s(%dx%d)", kind, rows, cols))
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			} else if torus {
				b.AddEdge(id(r, c), id(r, 0))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			} else if torus {
				b.AddEdge(id(r, c), id(0, c))
			}
		}
	}
	return b.Build()
}

// CompleteKAryTree returns a complete k-ary tree with n vertices, rooted
// at node 0; node v's children are kv+1 .. kv+k.
func CompleteKAryTree(n, k int) (*Graph, error) {
	if n < 2 || k < 1 {
		return nil, fmt.Errorf("%w: CompleteKAryTree(%d,%d)", ErrInvalidParam, n, k)
	}
	b := NewBuilder(n).SetName(fmt.Sprintf("tree(%d,k=%d)", n, k))
	for v := 1; v < n; v++ {
		parent := (v - 1) / k
		b.AddEdge(NodeID(parent), NodeID(v))
	}
	return b.Build()
}

// Barbell returns two cliques of size k connected by a path of
// pathLen >= 0 intermediate vertices (pathLen = 0 joins the cliques by a
// single edge). Total vertices: 2k + pathLen.
func Barbell(k, pathLen int) (*Graph, error) {
	if k < 2 || pathLen < 0 {
		return nil, fmt.Errorf("%w: Barbell(%d,%d)", ErrInvalidParam, k, pathLen)
	}
	n := 2*k + pathLen
	b := NewBuilder(n).SetName(fmt.Sprintf("barbell(k=%d,path=%d)", k, pathLen))
	// Left clique: 0..k-1. Right clique: k+pathLen..n-1.
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	right := k + pathLen
	for u := right; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	// Path from node k-1 through the intermediates to node right.
	prev := NodeID(k - 1)
	for i := 0; i < pathLen; i++ {
		cur := NodeID(k + i)
		b.AddEdge(prev, cur)
		prev = cur
	}
	b.AddEdge(prev, NodeID(right))
	return b.Build()
}

// DoubleStar returns two stars whose centers are joined by an edge; each
// center has leafs leaves. Total vertices: 2*leafs + 2. Node 0 and node 1
// are the centers. A high-degree/high-degree bridge is the classic
// bottleneck where both push and pull across the bridge are slow.
func DoubleStar(leafs int) (*Graph, error) {
	if leafs < 1 {
		return nil, fmt.Errorf("%w: DoubleStar(%d)", ErrInvalidParam, leafs)
	}
	n := 2*leafs + 2
	b := NewBuilder(n).SetName(fmt.Sprintf("doublestar(%d)", leafs))
	b.AddEdge(0, 1)
	for i := 0; i < leafs; i++ {
		b.AddEdge(0, NodeID(2+i))
		b.AddEdge(1, NodeID(2+leafs+i))
	}
	return b.Build()
}

// DiamondChain returns the adversarial family that realizes the large
// sync/async gap discussed in the paper's Section 1 (the graph of Acan et
// al. on which asynchronous push-pull has polylogarithmic spreading time
// while synchronous push-pull needs a polynomial number of rounds).
//
// The graph is a chain of k "diamonds". Diamond i consists of two
// endpoints e_i, e_{i+1} and m internal (middle) vertices, each adjacent
// to exactly both endpoints (m parallel length-2 paths). Endpoints are
// shared between consecutive diamonds. Total vertices: (k+1) + k*m.
//
// Synchronous push-pull must spend at least 2 rounds per diamond (the hop
// distance), so T(pp) = Ω(k). Asynchronously, informed middles accumulate
// and contact the far endpoint at a growing aggregate rate, so a diamond
// is crossed in Θ(1/√m) expected time and T(pp-a) = Õ(k/√m + log n).
// Choosing k = n^{1/3}, m = n^{2/3} (see DiamondChainForSize) yields
// sync Θ(n^{1/3}) vs async polylog — the maximal-gap regime that
// Theorem 2 caps at √n · polylog(n).
func DiamondChain(k, m int) (*Graph, error) {
	if k < 1 || m < 1 {
		return nil, fmt.Errorf("%w: DiamondChain(%d,%d)", ErrInvalidParam, k, m)
	}
	n := (k + 1) + k*m
	b := NewBuilder(n).SetName(fmt.Sprintf("diamond(k=%d,m=%d)", k, m))
	// Endpoints are nodes 0..k; middles of diamond i are
	// k+1 + i*m .. k+1 + (i+1)*m - 1.
	for i := 0; i < k; i++ {
		left := NodeID(i)
		right := NodeID(i + 1)
		base := k + 1 + i*m
		for j := 0; j < m; j++ {
			mid := NodeID(base + j)
			b.AddEdge(left, mid)
			b.AddEdge(mid, right)
		}
	}
	return b.Build()
}

// DiamondChainForSize returns a DiamondChain with k ≈ n^{1/3} diamonds of
// m ≈ n^{2/3} middles targeting approximately n total vertices — the
// parameterization with the largest known sync/async push-pull gap.
func DiamondChainForSize(n int) (*Graph, error) {
	if n < 8 {
		return nil, fmt.Errorf("%w: DiamondChainForSize(%d)", ErrInvalidParam, n)
	}
	k := icbrt(n)
	if k < 1 {
		k = 1
	}
	m := n / k
	if m < 1 {
		m = 1
	}
	return DiamondChain(k, m)
}

// icbrt returns the integer cube root of n.
func icbrt(n int) int {
	if n <= 0 {
		return 0
	}
	r := 0
	for (r+1)*(r+1)*(r+1) <= n {
		r++
	}
	return r
}
