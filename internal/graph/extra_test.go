package graph

import (
	"errors"
	"testing"
)

func TestCompleteBipartite(t *testing.T) {
	g, err := CompleteBipartite(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if g.NumNodes() != 7 || g.NumEdges() != 12 {
		t.Fatalf("K_{3,4}: n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	// Left degrees = 4, right degrees = 3.
	for v := NodeID(0); v < 3; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("left degree %d", g.Degree(v))
		}
	}
	for v := NodeID(3); v < 7; v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("right degree %d", g.Degree(v))
		}
	}
	// No within-side edges.
	if g.HasEdge(0, 1) || g.HasEdge(3, 4) {
		t.Fatal("within-side edge present")
	}
	if Diameter(g) != 2 {
		t.Fatalf("K_{3,4} diameter = %d", Diameter(g))
	}
}

func TestCompleteBipartiteIsStarWhenA1(t *testing.T) {
	g, err := CompleteBipartite(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	star, _ := Star(6)
	if g.NumEdges() != star.NumEdges() || g.Degree(0) != star.Degree(0) {
		t.Fatal("K_{1,5} is not the 6-star")
	}
}

func TestWheel(t *testing.T) {
	g, err := Wheel(8) // hub + 7-cycle rim
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if g.NumNodes() != 8 || g.NumEdges() != 14 {
		t.Fatalf("W_8: n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(0) != 7 {
		t.Fatalf("hub degree %d", g.Degree(0))
	}
	for v := NodeID(1); v < 8; v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("rim degree %d at %d", g.Degree(v), v)
		}
	}
	if Diameter(g) != 2 {
		t.Fatalf("wheel diameter %d", Diameter(g))
	}
	if _, err := Wheel(3); !errors.Is(err, ErrInvalidParam) {
		t.Error("Wheel(3) accepted")
	}
}
