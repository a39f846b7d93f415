package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"rumor/internal/xrand"
)

// naiveBuild constructs the expected CSR via maps, the slow obvious way.
func naiveBuild(n int, edges [][2]NodeID) (map[NodeID][]NodeID, int) {
	adj := make(map[NodeID]map[NodeID]bool)
	for _, e := range edges {
		u, v := e[0], e[1]
		if adj[u] == nil {
			adj[u] = make(map[NodeID]bool)
		}
		if adj[v] == nil {
			adj[v] = make(map[NodeID]bool)
		}
		adj[u][v] = true
		adj[v][u] = true
	}
	out := make(map[NodeID][]NodeID, n)
	m := 0
	for v := NodeID(0); int(v) < n; v++ {
		for w := range adj[v] {
			out[v] = append(out[v], w)
		}
		sort.Slice(out[v], func(i, j int) bool { return out[v][i] < out[v][j] })
		m += len(out[v])
	}
	return out, m / 2
}

func checkAgainstNaive(t *testing.T, g *Graph, n int, edges [][2]NodeID) {
	t.Helper()
	want, m := naiveBuild(n, edges)
	if g.NumNodes() != n {
		t.Fatalf("NumNodes = %d, want %d", g.NumNodes(), n)
	}
	if g.NumEdges() != m {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), m)
	}
	for v := NodeID(0); int(v) < n; v++ {
		got := g.Neighbors(v)
		if len(got) != len(want[v]) {
			t.Fatalf("node %d: %d neighbors, want %d", v, len(got), len(want[v]))
		}
		for i := range got {
			if got[i] != want[v][i] {
				t.Fatalf("node %d neighbor %d: got %d want %d", v, i, got[i], want[v][i])
			}
		}
	}
}

func TestStreamedBuildMatchesNaive(t *testing.T) {
	rng := xrand.New(1234)
	for _, tc := range []struct{ n, m int }{
		{0, 0}, {1, 0}, {2, 1}, {5, 4}, {33, 100}, {257, 2000}, {1000, 30000},
	} {
		t.Run(fmt.Sprintf("n%d_m%d", tc.n, tc.m), func(t *testing.T) {
			b := NewBuilder(tc.n)
			var edges [][2]NodeID
			for len(edges) < tc.m {
				u := NodeID(rng.Intn(tc.n))
				v := NodeID(rng.Intn(tc.n))
				if u == v {
					continue
				}
				b.AddEdge(u, v)
				edges = append(edges, [2]NodeID{u, v})
				// Occasionally re-add the same edge (possibly reversed) to
				// exercise deduplication.
				if rng.Bernoulli(0.1) {
					b.AddEdge(v, u)
					edges = append(edges, [2]NodeID{v, u})
				}
			}
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstNaive(t, g, tc.n, edges)
		})
	}
}

// One edge set, fed to the Builder in every order and orientation and
// with repeats, is one CSR: the arrays of the in-order feed (which Build
// returns unsorted, and the naive construction confirms) are what every
// other feed must produce through the sort+dedup pass. The feeds that
// differ from the in-order one by a single edge — its first edge moved
// to the end, its last edge given twice — are the ones a too-eager
// "still ordered" test would get wrong.
func TestBuilderInputOrderDoesNotMatter(t *testing.T) {
	rng := xrand.New(77)
	for _, tc := range []struct {
		n int
		p float64
	}{{2, 1}, {3, 1}, {40, 0.2}, {257, 0.05}, {300, 1} /* 44850 edges: two chunks */, {1000, 0.01}} {
		var ordered [][2]NodeID
		for u := 0; u < tc.n; u++ {
			for v := u + 1; v < tc.n; v++ {
				if rng.Bernoulli(tc.p) {
					ordered = append(ordered, [2]NodeID{NodeID(u), NodeID(v)})
				}
			}
		}
		if len(ordered) == 0 {
			t.Fatalf("n=%d: empty edge set", tc.n)
		}
		// build also checks the Builder's own verdict on the feed against
		// the definition: u < v throughout, each edge after the previous.
		build := func(edges [][2]NodeID) (*Graph, bool) {
			t.Helper()
			b := NewBuilder(tc.n)
			inOrder := true
			for i, e := range edges {
				b.AddEdge(e[0], e[1])
				if e[0] >= e[1] || (i > 0 && slices.Compare(edges[i-1][:], e[:]) >= 0) {
					inOrder = false
				}
			}
			if b.unordered == inOrder {
				t.Fatalf("n=%d: Builder.unordered = %v on a feed with inOrder = %v", tc.n, b.unordered, inOrder)
			}
			return mustG(t)(b.Build()), inOrder
		}
		want, inOrder := build(ordered)
		if !inOrder {
			t.Fatalf("n=%d: the reference feed is not in order", tc.n)
		}
		checkAgainstNaive(t, want, tc.n, ordered)

		flipped := make([][2]NodeID, len(ordered))
		for i, e := range ordered {
			flipped[i] = [2]NodeID{e[1], e[0]}
		}
		backwards := slices.Clone(ordered)
		slices.Reverse(backwards)
		shuffled := slices.Clone(ordered)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var repeated [][2]NodeID
		for _, e := range ordered {
			repeated = append(repeated, e)
			if rng.Bernoulli(0.3) {
				repeated = append(repeated, ordered[rng.Intn(len(ordered))])
			}
		}
		repeated = append(repeated, flipped[0])
		feeds := map[string][][2]NodeID{
			"flipped":       flipped,
			"shuffled":      shuffled,
			"repeated":      repeated,
			"first-at-end":  append(slices.Clone(ordered[1:]), ordered[0]),
			"last-twice":    append(slices.Clone(ordered), ordered[len(ordered)-1]),
			"last-flipped":  append(slices.Clone(ordered[:len(ordered)-1]), flipped[len(ordered)-1]),
			"first-flipped": append([][2]NodeID{flipped[0]}, ordered[1:]...),
			"backwards":     backwards,
		}
		for name, edges := range feeds {
			got, inOrder := build(edges)
			// A one-edge set read backwards or rotated is itself.
			if inOrder && len(ordered) > 3 {
				t.Errorf("n=%d %s: feed is in order, the sort pass was not exercised", tc.n, name)
			}
			if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.adj, want.adj) {
				t.Errorf("n=%d %s: CSR differs from the in-order build", tc.n, name)
			}
		}
	}
}

func TestStreamedBuildCrossesChunkBoundary(t *testing.T) {
	// More than 2x the chunk capacity, on a graph small enough for the
	// naive check: forces multiple staging chunks and heavy dedup.
	n := 300
	m := 2*builderChunkEdges + 17
	rng := xrand.New(9)
	b := NewBuilder(n)
	var edges [][2]NodeID
	for i := 0; i < m; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			v = (u + 1) % NodeID(n)
		}
		b.AddEdge(u, v)
		edges = append(edges, [2]NodeID{u, v})
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstNaive(t, g, n, edges)
}

func TestStreamedBuildErrorsPreserved(t *testing.T) {
	if _, err := NewBuilder(4).AddEdge(1, 1).Build(); err == nil {
		t.Fatal("self loop not rejected")
	}
	if _, err := NewBuilder(4).AddEdge(0, 4).Build(); err == nil {
		t.Fatal("out-of-range not rejected")
	}
	if _, err := NewBuilder(-1).Build(); err == nil {
		t.Fatal("negative n not rejected")
	}
	// Errors stick: edges after an error are ignored, first error wins.
	b := NewBuilder(4).AddEdge(9, 0).AddEdge(0, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("deferred error lost")
	}
}

func mustG(t testing.TB) func(*Graph, error) *Graph {
	return func(g *Graph, err error) *Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

func TestBFSScratchReuse(t *testing.T) {
	var s BFSScratch
	// Same scratch across graphs of different sizes, interleaved: each
	// result must match a fresh BFS.
	must := mustG(t)
	graphs := []*Graph{
		must(Cycle(7)), must(Hypercube(4)), must(Star(33)),
		must(Cycle(100)), must(Star(3)),
	}
	for _, g := range graphs {
		for src := NodeID(0); int(src) < g.NumNodes(); src += NodeID(g.NumNodes()/3 + 1) {
			got := s.BFS(g, src)
			want := BFS(g, src)
			if len(got) != len(want) {
				t.Fatalf("%s src=%d: len %d want %d", g, src, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s src=%d dist[%d]: got %d want %d", g, src, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDiameterUnchangedByScratchReuse(t *testing.T) {
	must := mustG(t)
	for _, g := range []*Graph{must(Cycle(9)), must(Hypercube(5)), must(Star(17))} {
		// Diameter via per-source fresh eccentricity (the old code path).
		n := g.NumNodes()
		var slow int32
		for v := NodeID(0); int(v) < n; v++ {
			ecc, ok := new(BFSScratch).eccentricity(g, v)
			if !ok {
				t.Fatalf("%s disconnected", g)
			}
			if ecc > slow {
				slow = ecc
			}
		}
		if got := Diameter(g); got != slow {
			t.Fatalf("%s: Diameter=%d, per-source max=%d", g, got, slow)
		}
	}
}

// gnpLargeN is the benchmark workload's graph: n = 250 000 at
// p = 3 ln n / n, 4.66M edges, a CSR of 38 MB.
const gnpLargeN = 250_000

func gnpLargeP() float64 { return 3 * math.Log(gnpLargeN) / gnpLargeN }

// BenchmarkBuildGNP is generation + staging + Build (GNP emits its edges
// in pair order, so Build sorts nothing), without the connectivity check.
func BenchmarkBuildGNP(b *testing.B) {
	for _, tc := range []struct {
		n int
		p float64
	}{{1 << 14, 12.0 / (1 << 14)}, {gnpLargeN, gnpLargeP()}} {
		b.Run(fmt.Sprintf("n%d", tc.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := GNP(tc.n, tc.p, xrand.New(7))
				if err != nil {
					b.Fatal(err)
				}
				if g.NumNodes() != tc.n {
					b.Fatal("bad build")
				}
			}
		})
	}
}

// BenchmarkIsConnectedGNPLarge is the first, unremembered IsConnected
// on the large graph.
func BenchmarkIsConnectedGNPLarge(b *testing.B) {
	g := mustG(b)(GNP(gnpLargeN, gnpLargeP(), xrand.New(7)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.connected.Store(0)
		if !IsConnected(g) {
			b.Fatal("disconnected")
		}
	}
}

func BenchmarkDiameterScratch(b *testing.B) {
	g := mustG(b)(Hypercube(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := Diameter(g); d != 9 {
			b.Fatalf("diameter %d", d)
		}
	}
}
