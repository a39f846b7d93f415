package graph_test

import (
	"fmt"
	"sync"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/harness"
)

// reachableByBFS is the size of the union of the sources' components,
// from full distance searches.
func reachableByBFS(g *graph.Graph, sources []graph.NodeID) int {
	seen := make([]bool, g.NumNodes())
	for _, src := range sources {
		for v, d := range graph.BFS(g, src) {
			if d >= 0 {
				seen[v] = true
			}
		}
	}
	count := 0
	for _, s := range seen {
		if s {
			count++
		}
	}
	return count
}

// The early-exit search behind IsConnected and Reachable must say what
// the full distance BFS says: on every family at several sizes and
// seeds — the below-threshold G(n,p) instances are disconnected — and
// on the shapes where stopping at "n vertices seen" could be off by
// one: no vertex, one, two with and without the edge, and a connected
// graph plus an isolated last vertex.
func TestConnectivityMatchesFullBFS(t *testing.T) {
	var graphs []*graph.Graph
	add := func(g *graph.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	disconnected := 0
	for _, f := range harness.StandardFamilies() {
		for _, n := range []int{16, 65, 400} {
			for seed := uint64(1); seed <= 3; seed++ {
				add(f.Build(n, seed))
				if g := graphs[len(graphs)-1]; reachableByBFS(g, []graph.NodeID{0}) < g.NumNodes() {
					disconnected++
				}
			}
		}
	}
	if disconnected < 5 {
		t.Fatalf("only %d disconnected instances generated; the table no longer tests the negative answer", disconnected)
	}
	add(&graph.Graph{}, nil)
	for _, n := range []int{0, 1, 2} {
		add(graph.NewBuilder(n).Build())
	}
	add(graph.NewBuilder(2).AddEdge(0, 1).Build())
	lastIsolated := graph.NewBuilder(65)
	for v := graph.NodeID(0); v < 63; v++ {
		lastIsolated.AddEdge(v, v+1)
	}
	add(lastIsolated.Build())

	for i, g := range graphs {
		name := fmt.Sprintf("#%d %s", i, g)
		n := g.NumNodes()
		want := n <= 1 || reachableByBFS(g, []graph.NodeID{0}) == n
		if got := graph.IsConnected(g); got != want {
			t.Errorf("%s: IsConnected = %v, full BFS says %v", name, got, want)
		}
		if got := graph.IsConnected(g); got != want {
			t.Errorf("%s: remembered IsConnected = %v, want %v", name, got, want)
		}
		if n == 0 {
			if got := graph.Reachable(g, nil); got != 0 {
				t.Errorf("%s: Reachable(nil) = %d", name, got)
			}
			continue
		}
		last := graph.NodeID(n - 1)
		for _, sources := range [][]graph.NodeID{{0}, {last}, {last, 0, last}, {graph.NodeID(n / 2), graph.NodeID(n / 3)}} {
			if got, want := graph.Reachable(g, sources), reachableByBFS(g, sources); got != want {
				t.Errorf("%s: Reachable(%v) = %d, full BFS says %d", name, sources, got, want)
			}
		}
	}
}

// Several goroutines asking a fresh graph at once may each run the
// search; they share nothing but the remembered answer, and agree (the
// race job runs this package).
func TestIsConnectedConcurrentFirstCalls(t *testing.T) {
	// Neither family asks IsConnected while building, so the graphs
	// arrive with nothing remembered: one disconnected, one connected.
	for _, name := range []string{"gnp-below-threshold", "hypercube"} {
		f, err := harness.FamilyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := f.Build(2048, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := reachableByBFS(g, []graph.NodeID{0}) == g.NumNodes()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := graph.IsConnected(g); got != want {
					t.Errorf("%s: IsConnected = %v, want %v", g, got, want)
				}
			}()
		}
		wg.Wait()
	}
}
