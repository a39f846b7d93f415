package graph

import (
	"errors"
	"sort"
	"testing"
	"testing/quick"

	"rumor/internal/xrand"
)

// checkInvariants verifies structural CSR invariants that every graph in
// this package must satisfy.
func checkInvariants(t *testing.T, g *Graph) {
	t.Helper()
	n := g.NumNodes()
	degSum := 0
	for v := NodeID(0); int(v) < n; v++ {
		nbrs := g.Neighbors(v)
		if int(g.Degree(v)) != len(nbrs) {
			t.Fatalf("Degree(%d) = %d but len(Neighbors) = %d", v, g.Degree(v), len(nbrs))
		}
		degSum += len(nbrs)
		for i, w := range nbrs {
			if w == v {
				t.Fatalf("self loop at %d", v)
			}
			if w < 0 || int(w) >= n {
				t.Fatalf("neighbor %d of %d out of range", w, v)
			}
			if i > 0 && nbrs[i-1] >= w {
				t.Fatalf("adjacency of %d not strictly sorted: %v", v, nbrs)
			}
			if !g.HasEdge(w, v) {
				t.Fatalf("edge (%d,%d) present but (%d,%d) missing", v, w, w, v)
			}
		}
	}
	if degSum != 2*g.NumEdges() {
		t.Fatalf("degree sum %d != 2m = %d", degSum, 2*g.NumEdges())
	}
}

func TestBuilderBasic(t *testing.T) {
	g, err := NewBuilder(4).SetName("test").
		AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(3, 0).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got n=%d m=%d, want 4, 4", g.NumNodes(), g.NumEdges())
	}
	if g.Name() != "test" {
		t.Fatalf("Name = %q", g.Name())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	g, err := NewBuilder(3).AddEdge(0, 1).AddEdge(1, 0).AddEdge(0, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("duplicate edges not removed: m = %d", g.NumEdges())
	}
	checkInvariants(t, g)
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	_, err := NewBuilder(3).AddEdge(1, 1).Build()
	if !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("err = %v, want ErrSelfLoop", err)
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	for _, e := range [][2]NodeID{{0, 3}, {-1, 0}, {3, 4}} {
		_, err := NewBuilder(3).AddEdge(e[0], e[1]).Build()
		if !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("AddEdge(%d,%d): err = %v, want ErrOutOfRange", e[0], e[1], err)
		}
	}
}

func TestBuilderRejectsNegativeN(t *testing.T) {
	_, err := NewBuilder(-1).Build()
	if !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("err = %v, want ErrInvalidParam", err)
	}
}

func TestBuilderErrorSticky(t *testing.T) {
	b := NewBuilder(3).AddEdge(5, 6) // out of range
	b.AddEdge(0, 1)                  // fine, but error must persist
	if _, err := b.Build(); err == nil {
		t.Fatal("Build after invalid AddEdge succeeded")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph not empty")
	}
	if d, ok := g.Regularity(); !ok || d != 0 {
		t.Fatal("empty graph should be 0-regular")
	}
}

func TestZeroValueGraph(t *testing.T) {
	var g Graph
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("zero-value graph should be empty")
	}
}

func TestEdgesIteration(t *testing.T) {
	g := NewBuilder(4).AddEdge(0, 1).AddEdge(2, 3).AddEdge(1, 3).MustBuild()
	var got [][2]NodeID
	g.Edges(func(u, v NodeID) {
		got = append(got, [2]NodeID{u, v})
	})
	want := [][2]NodeID{{0, 1}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("Edges yielded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Edges yielded %v, want %v", got, want)
		}
	}
}

func TestRandomNeighborUniform(t *testing.T) {
	g := NewBuilder(4).AddEdge(0, 1).AddEdge(0, 2).AddEdge(0, 3).MustBuild()
	rng := xrand.New(7)
	counts := map[NodeID]int{}
	const trials = 30000
	for i := 0; i < trials; i++ {
		counts[g.RandomNeighbor(0, rng)]++
	}
	for _, v := range []NodeID{1, 2, 3} {
		freq := float64(counts[v]) / trials
		if freq < 0.30 || freq > 0.37 {
			t.Fatalf("neighbor %d frequency %v, want ~1/3", v, freq)
		}
	}
}

func TestRandomNeighborIsolatedPanics(t *testing.T) {
	g := NewBuilder(2).MustBuild()
	defer func() {
		if recover() == nil {
			t.Fatal("RandomNeighbor on isolated node did not panic")
		}
	}()
	g.RandomNeighbor(0, xrand.New(1))
}

func TestRegularity(t *testing.T) {
	cyc, _ := Cycle(5)
	if d, ok := cyc.Regularity(); !ok || d != 2 {
		t.Fatalf("cycle regularity = (%d, %v)", d, ok)
	}
	star, _ := Star(5)
	if _, ok := star.Regularity(); ok {
		t.Fatal("star reported regular")
	}
}

func TestGraphString(t *testing.T) {
	g, _ := Star(4)
	if got := g.String(); got != "star(4){n=4, m=3}" {
		t.Fatalf("String = %q", got)
	}
}

func TestQuickBuilderAlwaysValid(t *testing.T) {
	// Arbitrary valid edge sets produce graphs satisfying all invariants.
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%50) + 2
		rng := xrand.New(seed)
		b := NewBuilder(n)
		edges := rng.Intn(3 * n)
		for i := 0; i < edges; i++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		// Inline the invariant check (cannot call t.Fatalf here).
		degSum := 0
		for v := NodeID(0); int(v) < n; v++ {
			nbrs := g.Neighbors(v)
			degSum += len(nbrs)
			for i, w := range nbrs {
				if w == v || !g.HasEdge(w, v) {
					return false
				}
				if i > 0 && nbrs[i-1] >= w {
					return false
				}
			}
		}
		return degSum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsSorted(t *testing.T) {
	rng := xrand.New(3)
	g, err := GNP(200, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		nbrs := g.Neighbors(v)
		if !sort.SliceIsSorted(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] }) {
			t.Fatalf("neighbors of %d unsorted", v)
		}
	}
}
