package graph

import (
	"fmt"
	"math"
)

// BFSScratch holds the distance and queue buffers for breadth-first
// searches, so call sites that run many searches over the same graph
// (Diameter, connectivity sweeps) allocate once rather than per source.
// The zero value is ready to use; it grows to fit the largest graph seen.
type BFSScratch struct {
	dist  []int32
	queue []NodeID
}

// BFS fills the scratch with hop distances from src (-1 for unreachable
// vertices) and returns the distance slice. The result aliases the
// scratch and is overwritten by the next call.
func (s *BFSScratch) BFS(g *Graph, src NodeID) []int32 {
	n := g.NumNodes()
	if cap(s.dist) < n {
		s.dist = make([]int32, n)
		s.queue = make([]NodeID, 0, n)
	}
	dist := s.dist[:n]
	for i := range dist {
		dist[i] = -1
	}
	if n == 0 {
		return dist
	}
	dist[src] = 0
	queue := s.queue[:0]
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	s.queue = queue
	return dist
}

// eccentricity returns the maximum hop distance from src to any reachable
// vertex, and whether all vertices are reachable.
func (s *BFSScratch) eccentricity(g *Graph, src NodeID) (int32, bool) {
	dist := s.BFS(g, src)
	var ecc int32
	connected := true
	for _, d := range dist {
		if d < 0 {
			connected = false
			continue
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, connected
}

// BFS returns the hop distance from src to every vertex, with -1 for
// unreachable vertices. The returned slice is freshly allocated; use
// BFSScratch.BFS to amortize allocations over repeated searches.
func BFS(g *Graph, src NodeID) []int32 {
	var s BFSScratch
	return s.BFS(g, src)
}

// IsConnected reports whether the graph is connected. The empty graph and
// single-vertex graph are connected. The graph is immutable, so the
// answer is computed by one search from vertex 0 the first time — which
// stops as soon as it has seen every vertex — and remembered on the
// graph; concurrent first calls may each search, and agree.
func IsConnected(g *Graph) bool {
	const yes, no = 1, 2
	if c := g.connected.Load(); c != 0 {
		return c == yes
	}
	c := int32(yes)
	if n := g.NumNodes(); n > 1 && Reachable(g, []NodeID{0}) < n {
		c = no
	}
	g.connected.Store(c)
	return c == yes
}

// Reachable returns the size of the union of the sources' connected
// components. The search keeps one visited bit per vertex and no
// distances, and returns once every vertex has been seen: on a graph
// whose frontier soon covers it (a G(n,p) above the connectivity
// threshold) most adjacency lists are never read.
func Reachable(g *Graph, sources []NodeID) int {
	n := g.NumNodes()
	visited := make([]uint64, (n+63)>>6)
	queue := make([]NodeID, 0, n)
	visit := func(v NodeID) {
		if word, bit := &visited[uint32(v)>>6], uint64(1)<<(uint32(v)&63); *word&bit == 0 {
			*word |= bit
			queue = append(queue, v)
		}
	}
	for _, src := range sources {
		visit(src)
	}
	for head := 0; head < len(queue) && len(queue) < n; head++ {
		for _, v := range g.Neighbors(queue[head]) {
			visit(v)
		}
	}
	return len(queue)
}

// Diameter returns the exact diameter by running BFS from every vertex.
// Cost is O(n·m) time and O(n) scratch space (one shared buffer across
// all sources); intended for small and medium graphs. Returns -1 for
// disconnected graphs.
func Diameter(g *Graph) int32 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	var s BFSScratch
	var diam int32
	for v := NodeID(0); int(v) < n; v++ {
		ecc, connected := s.eccentricity(g, v)
		if !connected {
			return -1
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// DiameterLowerBound returns a lower bound on the diameter via a double
// BFS sweep (exact on trees, usually tight in practice), in O(m) time.
// Returns -1 for disconnected graphs.
func DiameterLowerBound(g *Graph) int32 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	var s BFSScratch
	dist := s.BFS(g, 0)
	far := NodeID(0)
	for v, d := range dist {
		if d < 0 {
			return -1
		}
		if d > dist[far] {
			far = NodeID(v)
		}
	}
	ecc, _ := s.eccentricity(g, far)
	return ecc
}

// LargestComponent returns the subgraph induced by the largest connected
// component, along with the mapping from new IDs to original IDs. If the
// graph is connected it is returned as-is with a nil mapping.
func LargestComponent(g *Graph) (*Graph, []NodeID, error) {
	n := g.NumNodes()
	if n == 0 {
		return g, nil, nil
	}
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var sizes []int
	queue := make([]NodeID, 0, n)
	for v := NodeID(0); int(v) < n; v++ {
		if comp[v] >= 0 {
			continue
		}
		id := int32(len(sizes))
		size := 0
		comp[v] = id
		queue = queue[:0]
		queue = append(queue, v)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			size++
			for _, w := range g.Neighbors(u) {
				if comp[w] < 0 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
		}
		sizes = append(sizes, size)
	}
	if len(sizes) == 1 {
		return g, nil, nil
	}
	best := int32(0)
	for i, s := range sizes {
		if s > sizes[best] {
			best = int32(i)
		}
	}
	oldToNew := make([]NodeID, n)
	newToOld := make([]NodeID, 0, sizes[best])
	for v := NodeID(0); int(v) < n; v++ {
		if comp[v] == best {
			oldToNew[v] = NodeID(len(newToOld))
			newToOld = append(newToOld, v)
		} else {
			oldToNew[v] = -1
		}
	}
	b := NewBuilder(len(newToOld)).SetName(g.name + "/lcc")
	g.Edges(func(u, v NodeID) {
		if oldToNew[u] >= 0 && oldToNew[v] >= 0 {
			b.AddEdge(oldToNew[u], oldToNew[v])
		}
	})
	sub, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return sub, newToOld, nil
}

// DegreeStats summarizes a graph's degree sequence.
type DegreeStats struct {
	Min, Max int32
	Mean     float64
	StdDev   float64
}

// Degrees returns the degree statistics of g.
func Degrees(g *Graph) DegreeStats {
	n := g.NumNodes()
	if n == 0 {
		return DegreeStats{}
	}
	stats := DegreeStats{Min: g.Degree(0), Max: g.Degree(0)}
	var sum, sumSq float64
	for v := NodeID(0); int(v) < n; v++ {
		d := g.Degree(v)
		if d < stats.Min {
			stats.Min = d
		}
		if d > stats.Max {
			stats.Max = d
		}
		fd := float64(d)
		sum += fd
		sumSq += fd * fd
	}
	stats.Mean = sum / float64(n)
	variance := sumSq/float64(n) - stats.Mean*stats.Mean
	if variance < 0 {
		variance = 0
	}
	stats.StdDev = math.Sqrt(variance)
	return stats
}

// String renders the stats compactly.
func (s DegreeStats) String() string {
	return fmt.Sprintf("deg[min=%d max=%d mean=%.2f sd=%.2f]", s.Min, s.Max, s.Mean, s.StdDev)
}
