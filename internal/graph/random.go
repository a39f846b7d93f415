package graph

import (
	"fmt"
	"math"

	"rumor/internal/xrand"
)

// GNP returns an Erdős–Rényi random graph G(n, p): every unordered pair
// is an edge independently with probability p. Generation is O(n + m)
// using geometric skipping over the ordered pair sequence.
func GNP(n int, p float64, rng *xrand.RNG) (*Graph, error) {
	if n < 1 || p < 0 || p > 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("%w: GNP(%d, %v)", ErrInvalidParam, n, p)
	}
	b := NewBuilder(n).SetName(fmt.Sprintf("gnp(%d,p=%.4g)", n, p))
	if p == 0 {
		return b.Build()
	}
	if p == 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(NodeID(u), NodeID(v))
			}
		}
		return b.Build()
	}
	// Enumerate pairs (u, v), u < v, in lexicographic order; jump ahead
	// by Geometric(p) positions between successive edges.
	logq := math.Log1p(-p)
	maxSkip := float64(n)*float64(n) + 2
	u, v := 0, 0
	for u < n-1 {
		fskip := math.Log(rng.Float64Open())/logq + 1
		if fskip > maxSkip {
			// The jump passes every remaining pair: no more edges.
			break
		}
		v += int(fskip)
		for v >= n && u < n-1 {
			u++
			v = v - n + u + 1
		}
		if u < n-1 && v < n {
			b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	return b.Build()
}

// GNPConnected generates G(n, p) graphs until a connected instance is
// found, up to maxAttempts (at least 1). Useful for p at or above the
// connectivity threshold log(n)/n where failures are rare.
func GNPConnected(n int, p float64, rng *xrand.RNG, maxAttempts int) (*Graph, error) {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var g *Graph
	var err error
	for i := 0; i < maxAttempts; i++ {
		g, err = GNP(n, p, rng)
		if err != nil {
			return nil, err
		}
		if IsConnected(g) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: GNP(%d, %v) not connected after %d attempts", n, p, maxAttempts)
}

// RandomRegular returns a random d-regular simple graph on n vertices via
// the configuration model: d stubs per vertex are paired uniformly at
// random, and self loops / parallel edges are then removed by degree-
// preserving edge swaps with uniformly chosen partner edges.
//
// Requires n*d even, d < n. The swap-repair step makes the distribution
// only approximately uniform over d-regular graphs, which is sufficient
// for the simulation experiments here.
func RandomRegular(n, d int, rng *xrand.RNG) (*Graph, error) {
	if n < 2 || d < 1 || d >= n || (n*d)%2 != 0 {
		return nil, fmt.Errorf("%w: RandomRegular(%d, %d)", ErrInvalidParam, n, d)
	}
	stubs := make([]NodeID, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, NodeID(v))
		}
	}
	type edge struct{ u, v NodeID }
	edges := make([]edge, 0, n*d/2)
	pair := func() {
		rng.Shuffle32(stubs)
		edges = edges[:0]
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u > v {
				u, v = v, u
			}
			edges = append(edges, edge{u, v})
		}
	}
	seen := make(map[edge]int, n*d/2)
	countBad := func() int {
		for k := range seen {
			delete(seen, k)
		}
		bad := 0
		for _, e := range edges {
			if e.u == e.v {
				bad++
				continue
			}
			seen[e]++
			if seen[e] > 1 {
				bad++
			}
		}
		return bad
	}
	isBad := func(e edge) bool { return e.u == e.v || seen[e] > 1 }
	const maxRounds = 200
	pair()
	for round := 0; round < maxRounds; round++ {
		if countBad() == 0 {
			b := NewBuilder(n).SetName(fmt.Sprintf("regular(%d,d=%d)", n, d))
			for _, e := range edges {
				b.AddEdge(e.u, e.v)
			}
			return b.Build()
		}
		// One repair sweep: for each bad edge, swap with a random edge.
		for i := range edges {
			if !isBad(edges[i]) {
				continue
			}
			for attempt := 0; attempt < 50; attempt++ {
				j := rng.Intn(len(edges))
				if j == i {
					continue
				}
				a, c := edges[i], edges[j]
				// Swap to (a.u, c.u) and (a.v, c.v).
				n1 := edge{a.u, c.u}
				n2 := edge{a.v, c.v}
				if n1.u > n1.v {
					n1.u, n1.v = n1.v, n1.u
				}
				if n2.u > n2.v {
					n2.u, n2.v = n2.v, n2.u
				}
				if n1.u == n1.v || n2.u == n2.v {
					continue
				}
				if seen[n1] > 0 || seen[n2] > 0 {
					continue
				}
				// Apply the swap and update multiplicity bookkeeping.
				seen[a]--
				seen[c]--
				seen[n1]++
				seen[n2]++
				edges[i], edges[j] = n1, n2
				break
			}
		}
	}
	return nil, fmt.Errorf("graph: RandomRegular(%d, %d) repair did not converge", n, d)
}
