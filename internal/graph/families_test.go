package graph

import (
	"errors"
	"testing"
)

func TestComplete(t *testing.T) {
	g, err := Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if g.NumEdges() != 15 {
		t.Fatalf("K_6 has %d edges, want 15", g.NumEdges())
	}
	if d, ok := g.Regularity(); !ok || d != 5 {
		t.Fatalf("K_6 regularity (%d, %v)", d, ok)
	}
	if Diameter(g) != 1 {
		t.Fatal("K_6 diameter != 1")
	}
}

func TestStar(t *testing.T) {
	g, err := Star(10)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if g.NumEdges() != 9 {
		t.Fatalf("star(10) has %d edges", g.NumEdges())
	}
	if g.Degree(0) != 9 {
		t.Fatalf("star center degree %d", g.Degree(0))
	}
	for v := NodeID(1); v < 10; v++ {
		if g.Degree(v) != 1 {
			t.Fatalf("leaf %d degree %d", v, g.Degree(v))
		}
	}
	if Diameter(g) != 2 {
		t.Fatal("star diameter != 2")
	}
}

func TestPathAndCycle(t *testing.T) {
	p, err := Path(8)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, p)
	if p.NumEdges() != 7 || Diameter(p) != 7 {
		t.Fatalf("path(8): m=%d diam=%d", p.NumEdges(), Diameter(p))
	}
	c, err := Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	if c.NumEdges() != 8 || Diameter(c) != 4 {
		t.Fatalf("cycle(8): m=%d diam=%d", c.NumEdges(), Diameter(c))
	}
	if d, ok := c.Regularity(); !ok || d != 2 {
		t.Fatal("cycle not 2-regular")
	}
}

func TestHypercube(t *testing.T) {
	g, err := Hypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if g.NumNodes() != 32 {
		t.Fatalf("Q_5 nodes = %d", g.NumNodes())
	}
	if d, ok := g.Regularity(); !ok || d != 5 {
		t.Fatalf("Q_5 regularity (%d, %v)", d, ok)
	}
	if g.NumEdges() != 32*5/2 {
		t.Fatalf("Q_5 edges = %d", g.NumEdges())
	}
	if Diameter(g) != 5 {
		t.Fatalf("Q_5 diameter = %d", Diameter(g))
	}
	// Neighbors differ in exactly one bit.
	for v := NodeID(0); v < 32; v++ {
		for _, w := range g.Neighbors(v) {
			x := v ^ w
			if x&(x-1) != 0 {
				t.Fatalf("hypercube edge (%d,%d) differs in >1 bit", v, w)
			}
		}
	}
}

func TestGrid(t *testing.T) {
	g, err := Grid(4, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if g.NumNodes() != 20 || g.NumEdges() != 4*4+3*5 {
		t.Fatalf("grid(4x5): n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if Diameter(g) != 3+4 {
		t.Fatalf("grid(4x5) diameter = %d", Diameter(g))
	}
}

func TestTorusRegular(t *testing.T) {
	g, err := Grid(4, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if d, ok := g.Regularity(); !ok || d != 4 {
		t.Fatalf("torus(4x5) regularity (%d, %v)", d, ok)
	}
	if g.NumEdges() != 2*20 {
		t.Fatalf("torus edges = %d", g.NumEdges())
	}
}

func TestTorusTooSmall(t *testing.T) {
	if _, err := Grid(2, 5, true); !errors.Is(err, ErrInvalidParam) {
		t.Fatal("torus with 2 rows accepted")
	}
}

func TestCompleteKAryTree(t *testing.T) {
	g, err := CompleteKAryTree(15, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if g.NumEdges() != 14 {
		t.Fatalf("tree edges = %d, want 14", g.NumEdges())
	}
	if !IsConnected(g) {
		t.Fatal("tree disconnected")
	}
	// Root of a complete binary tree with 15 nodes has degree 2; internal
	// nodes degree 3; leaves degree 1.
	if g.Degree(0) != 2 {
		t.Fatalf("root degree = %d", g.Degree(0))
	}
}

func TestBarbell(t *testing.T) {
	g, err := Barbell(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if g.NumNodes() != 13 {
		t.Fatalf("barbell nodes = %d", g.NumNodes())
	}
	wantEdges := 2*10 + 4 // two K_5 plus path of 3 intermediates (4 edges)
	if g.NumEdges() != wantEdges {
		t.Fatalf("barbell edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	if !IsConnected(g) {
		t.Fatal("barbell disconnected")
	}
}

func TestBarbellZeroPath(t *testing.T) {
	g, err := Barbell(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if g.NumNodes() != 6 || !IsConnected(g) {
		t.Fatal("barbell(3,0) malformed")
	}
}

func TestDoubleStar(t *testing.T) {
	g, err := DoubleStar(5)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if g.NumNodes() != 12 || g.NumEdges() != 11 {
		t.Fatalf("doublestar: n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(0) != 6 || g.Degree(1) != 6 {
		t.Fatalf("doublestar centers: %d, %d", g.Degree(0), g.Degree(1))
	}
	if !IsConnected(g) {
		t.Fatal("doublestar disconnected")
	}
}

func TestDiamondChain(t *testing.T) {
	k, m := 4, 6
	g, err := DiamondChain(k, m)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if g.NumNodes() != (k+1)+k*m {
		t.Fatalf("diamond nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 2*k*m {
		t.Fatalf("diamond edges = %d, want %d", g.NumEdges(), 2*k*m)
	}
	if !IsConnected(g) {
		t.Fatal("diamond chain disconnected")
	}
	// Interior endpoints have degree 2m, chain ends have degree m.
	if g.Degree(0) != int32(m) || g.Degree(NodeID(k)) != int32(m) {
		t.Fatalf("end degrees: %d, %d", g.Degree(0), g.Degree(NodeID(k)))
	}
	for i := 1; i < k; i++ {
		if g.Degree(NodeID(i)) != int32(2*m) {
			t.Fatalf("interior endpoint %d degree %d", i, g.Degree(NodeID(i)))
		}
	}
	// Middles have degree exactly 2, and the diameter is 2k.
	for v := k + 1; v < g.NumNodes(); v++ {
		if g.Degree(NodeID(v)) != 2 {
			t.Fatalf("middle %d degree %d", v, g.Degree(NodeID(v)))
		}
	}
	if d := Diameter(g); d != int32(2*k) {
		t.Fatalf("diamond diameter = %d, want %d", d, 2*k)
	}
}

func TestDiamondChainForSize(t *testing.T) {
	g, err := DiamondChainForSize(1000)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	n := g.NumNodes()
	if n < 900 || n > 1200 {
		t.Fatalf("DiamondChainForSize(1000) produced n=%d", n)
	}
}

func TestICbrt(t *testing.T) {
	cases := map[int]int{1: 1, 7: 1, 8: 2, 26: 2, 27: 3, 1000: 10, 999: 9}
	for n, want := range cases {
		if got := icbrt(n); got != want {
			t.Errorf("icbrt(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFamilyParamValidation(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"Complete", func() error { _, err := Complete(0); return err }()},
		{"Star", func() error { _, err := Star(1); return err }()},
		{"Path", func() error { _, err := Path(1); return err }()},
		{"Cycle", func() error { _, err := Cycle(2); return err }()},
		{"Hypercube", func() error { _, err := Hypercube(0); return err }()},
		{"Grid", func() error { _, err := Grid(0, 3, false); return err }()},
		{"Tree", func() error { _, err := CompleteKAryTree(1, 2); return err }()},
		{"Barbell", func() error { _, err := Barbell(1, 0); return err }()},
		{"DoubleStar", func() error { _, err := DoubleStar(0); return err }()},
		{"DiamondChain", func() error { _, err := DiamondChain(0, 1); return err }()},
	}
	for _, c := range cases {
		if !errors.Is(c.err, ErrInvalidParam) {
			t.Errorf("%s: err = %v, want ErrInvalidParam", c.name, c.err)
		}
	}
}
