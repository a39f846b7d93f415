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
	var s BFSScratch
	ecc, conn := s.eccentricity(g, 0)
	if !conn || ecc != 5 {
		t.Fatalf("ecc(0) = (%d, %v)", ecc, conn)
	}
	ecc, conn = s.eccentricity(g, 3)
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
