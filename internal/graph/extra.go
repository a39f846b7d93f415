package graph

import "fmt"

// CompleteBipartite returns K_{a,b}: every one of the a left vertices
// (IDs 0..a-1) is adjacent to every one of the b right vertices
// (IDs a..a+b-1). K_{1,n-1} is the star; general K_{a,b} interpolates
// between the star's extreme degree asymmetry and the regular K_{a,a},
// which makes the family useful for probing push-vs-pull asymmetries.
func CompleteBipartite(a, b int) (*Graph, error) {
	if a < 1 || b < 1 {
		return nil, fmt.Errorf("%w: CompleteBipartite(%d,%d)", ErrInvalidParam, a, b)
	}
	bld := NewBuilder(a + b).SetName(fmt.Sprintf("bipartite(%d,%d)", a, b))
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			bld.AddEdge(NodeID(u), NodeID(a+v))
		}
	}
	return bld.Build()
}

// Wheel returns the wheel graph W_n: a cycle on n-1 vertices (IDs
// 1..n-1) plus a hub (ID 0) adjacent to all of them. Total n >= 4
// vertices. The hub gives constant diameter while the rim keeps most
// degrees at 3.
func Wheel(n int) (*Graph, error) {
	if n < 4 {
		return nil, fmt.Errorf("%w: Wheel(%d)", ErrInvalidParam, n)
	}
	rim := n - 1
	b := NewBuilder(n).SetName(fmt.Sprintf("wheel(%d)", n))
	for v := 1; v <= rim; v++ {
		b.AddEdge(0, NodeID(v))
		next := v%rim + 1
		b.AddEdge(NodeID(v), NodeID(next))
	}
	return b.Build()
}
