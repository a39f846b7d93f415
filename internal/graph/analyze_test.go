package graph

import (
	"math"
	"testing"

	"rumor/internal/xrand"
)

func TestBFSPath(t *testing.T) {
	g, _ := Path(5)
	dist := BFS(g, 0)
	for v, d := range dist {
		if d != int32(v) {
			t.Fatalf("dist[%d] = %d, want %d", v, d, v)
		}
	}
	dist = BFS(g, 2)
	want := []int32{2, 1, 0, 1, 2}
	for v, d := range dist {
		if d != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, d, want[v])
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := NewBuilder(4).AddEdge(0, 1).AddEdge(2, 3).MustBuild()
	dist := BFS(g, 0)
	if dist[1] != 1 || dist[2] != -1 || dist[3] != -1 {
		t.Fatalf("dist = %v", dist)
	}
	if IsConnected(g) {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestIsConnectedSmall(t *testing.T) {
	g0 := NewBuilder(0).MustBuild()
	if !IsConnected(g0) {
		t.Fatal("empty graph not connected")
	}
	g1 := NewBuilder(1).MustBuild()
	if !IsConnected(g1) {
		t.Fatal("K_1 not connected")
	}
	g2 := NewBuilder(2).MustBuild()
	if IsConnected(g2) {
		t.Fatal("two isolated nodes reported connected")
	}
}

func TestEccentricity(t *testing.T) {
	g, _ := Path(6)
	ecc, conn := Eccentricity(g, 0)
	if !conn || ecc != 5 {
		t.Fatalf("ecc(0) = (%d, %v)", ecc, conn)
	}
	ecc, conn = Eccentricity(g, 3)
	if !conn || ecc != 3 {
		t.Fatalf("ecc(3) = (%d, %v)", ecc, conn)
	}
}

func TestDiameterKnownGraphs(t *testing.T) {
	cases := []struct {
		build func() (*Graph, error)
		want  int32
	}{
		{func() (*Graph, error) { return Complete(7) }, 1},
		{func() (*Graph, error) { return Star(9) }, 2},
		{func() (*Graph, error) { return Path(10) }, 9},
		{func() (*Graph, error) { return Cycle(10) }, 5},
		{func() (*Graph, error) { return Hypercube(4) }, 4},
	}
	for _, c := range cases {
		g, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		if got := Diameter(g); got != c.want {
			t.Errorf("%s: diameter %d, want %d", g, got, c.want)
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := NewBuilder(3).AddEdge(0, 1).MustBuild()
	if Diameter(g) != -1 {
		t.Fatal("disconnected diameter should be -1")
	}
	if DiameterLowerBound(g) != -1 {
		t.Fatal("disconnected lower bound should be -1")
	}
}

func TestDiameterLowerBoundOnTrees(t *testing.T) {
	// Double sweep is exact on trees.
	g, _ := CompleteKAryTree(31, 2)
	if got, want := DiameterLowerBound(g), Diameter(g); got != want {
		t.Fatalf("double sweep on tree: %d, exact %d", got, want)
	}
}

func TestDiameterLowerBoundNeverExceeds(t *testing.T) {
	rng := xrand.New(20)
	for i := 0; i < 5; i++ {
		g, err := GNPConnected(80, 0.08, rng, 50)
		if err != nil {
			t.Fatal(err)
		}
		lb := DiameterLowerBound(g)
		exact := Diameter(g)
		if lb > exact {
			t.Fatalf("lower bound %d exceeds exact diameter %d", lb, exact)
		}
	}
}

func TestLargestComponent(t *testing.T) {
	// Two components: triangle {0,1,2} and edge {3,4}.
	g := NewBuilder(5).AddEdge(0, 1).AddEdge(1, 2).AddEdge(0, 2).AddEdge(3, 4).MustBuild()
	sub, mapping, err := LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("largest component: n=%d m=%d", sub.NumNodes(), sub.NumEdges())
	}
	if len(mapping) != 3 {
		t.Fatalf("mapping = %v", mapping)
	}
	for _, old := range mapping {
		if old > 2 {
			t.Fatalf("mapping includes node %d outside the triangle", old)
		}
	}
}

func TestLargestComponentConnectedPassthrough(t *testing.T) {
	g, _ := Cycle(5)
	sub, mapping, err := LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	if sub != g || mapping != nil {
		t.Fatal("connected graph should be returned unchanged")
	}
}

func TestDegrees(t *testing.T) {
	g, _ := Star(5)
	s := Degrees(g)
	if s.Min != 1 || s.Max != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if math.Abs(s.Mean-8.0/5) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestContactProbability(t *testing.T) {
	// In a star with n nodes: center contacted with prob (n-1)/n * 1
	// (each leaf has degree 1); leaf contacted with prob (1/n) * 1/(n-1).
	n := 10
	g, _ := Star(n)
	gotCenter := ContactProbability(g, 0)
	wantCenter := float64(n-1) / float64(n)
	if math.Abs(gotCenter-wantCenter) > 1e-12 {
		t.Fatalf("pi(center) = %v, want %v", gotCenter, wantCenter)
	}
	gotLeaf := ContactProbability(g, 1)
	wantLeaf := 1 / float64(n) / float64(n-1)
	if math.Abs(gotLeaf-wantLeaf) > 1e-12 {
		t.Fatalf("pi(leaf) = %v, want %v", gotLeaf, wantLeaf)
	}
}

func TestContactProbabilitySumsToExpectedContacts(t *testing.T) {
	// Σ_v π(v) = 1 for any graph: each step contacts exactly one node.
	rng := xrand.New(21)
	g, err := GNPConnected(60, 0.1, rng, 50)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		sum += ContactProbability(g, v)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum of contact probabilities = %v, want 1", sum)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g, _ := Complete(6)
	sub, mapping, err := InducedSubgraph(g, []NodeID{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, sub)
	if sub.NumNodes() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced K_3: n=%d m=%d", sub.NumNodes(), sub.NumEdges())
	}
	if len(mapping) != 3 || mapping[1] != 3 {
		t.Fatalf("mapping = %v", mapping)
	}
}

func TestInducedSubgraphPreservesNonEdges(t *testing.T) {
	g, _ := Cycle(6)
	sub, _, err := InducedSubgraph(g, []NodeID{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumEdges() != 0 {
		t.Fatalf("independent set induced %d edges", sub.NumEdges())
	}
}

func TestInducedSubgraphErrors(t *testing.T) {
	g, _ := Cycle(5)
	if _, _, err := InducedSubgraph(g, []NodeID{0, 9}); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, _, err := InducedSubgraph(g, []NodeID{1, 1}); err == nil {
		t.Error("duplicate node accepted")
	}
}

// TestIsConnectedMemoized: the answer is recorded on the immutable graph,
// so only the first call searches — a later one allocates no BFS scratch
// — for a connected and for a two-component graph alike.
func TestIsConnectedMemoized(t *testing.T) {
	ring, _ := Cycle(64)
	two := NewBuilder(6).AddEdge(0, 1).AddEdge(1, 2).AddEdge(3, 4).AddEdge(4, 5).MustBuild()
	for _, tc := range []struct {
		g    *Graph
		want bool
	}{{ring, true}, {two, false}} {
		if tc.g.connected.Load() != 0 {
			t.Fatalf("%v: connectivity known before anyone asked", tc.g)
		}
		if got := IsConnected(tc.g); got != tc.want || tc.g.connected.Load() == 0 {
			t.Fatalf("%v: IsConnected = %v (memo %d), want %v", tc.g, got, tc.g.connected.Load(), tc.want)
		}
		again := testing.AllocsPerRun(10, func() {
			if IsConnected(tc.g) != tc.want {
				t.Fatalf("%v: the remembered answer differs", tc.g)
			}
		})
		if again != 0 {
			t.Fatalf("%v: a repeated call allocated %v times: it searched again", tc.g, again)
		}
	}
}
