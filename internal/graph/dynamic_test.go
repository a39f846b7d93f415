package graph

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"rumor/internal/xrand"
)

func TestEpochOf(t *testing.T) {
	cases := []struct {
		t, period float64
		want      uint64
	}{
		{-1, 1, 0}, {0, 1, 0}, {0.5, 1, 0}, {1, 1, 1}, {2.7, 1, 2},
		{0.9, 0.5, 1}, {5, 2, 2}, {6, 2, 3},
	}
	for _, tc := range cases {
		if got := epochOf(tc.t, tc.period); got != tc.want {
			t.Errorf("epochOf(%v, %v) = %d, want %d", tc.t, tc.period, got, tc.want)
		}
	}
}

func TestStaticProvider(t *testing.T) {
	g, err := Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStatic(g)
	if s.NumNodes() != 16 {
		t.Fatalf("NumNodes = %d", s.NumNodes())
	}
	for _, tm := range []float64{0, 1, 100} {
		got, changed := s.At(tm)
		if got != g || changed {
			t.Fatalf("At(%v) = (%p, %v), want the base graph unchanged", tm, got, changed)
		}
	}
	s.Reset()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// buildCounter returns a Resample build function that counts epoch
// materializations, so the tests can assert skipped epochs are never
// built.
func buildCounter(n int, seed uint64, built map[uint64]int) func(uint64) (*Graph, error) {
	return func(epoch uint64) (*Graph, error) {
		built[epoch]++
		return GNP(n, 0.2, xrand.New(seed+epoch))
	}
}

func TestResampleDeterministicAndLazy(t *testing.T) {
	base, err := GNP(32, 0.2, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	built := map[uint64]int{}
	r, err := NewResample(base, 1, buildCounter(32, 7, built))
	if err != nil {
		t.Fatal(err)
	}

	if g, changed := r.At(0); g != base || changed {
		t.Fatal("epoch 0 is not the base graph")
	}
	g1, changed := r.At(1.5)
	if !changed || g1 == base {
		t.Fatal("epoch 1 did not change from the base")
	}
	if g, changed := r.At(1.9); g != g1 || changed {
		t.Fatal("same epoch returned a different graph")
	}
	// Jump straight to epoch 5: epochs 2..4 are independent and must
	// never materialize.
	r.At(5)
	if built[2] != 0 || built[3] != 0 || built[4] != 0 {
		t.Fatalf("skipped epochs were built: %v", built)
	}
	if built[5] != 1 {
		t.Fatalf("epoch 5 built %d times", built[5])
	}

	// Reset replays the identical sequence (same edge sets, same
	// objects from the deterministic build function's perspective).
	edges1 := edgeCount(t, r, []float64{0, 1, 2, 3})
	r.Reset()
	edges2 := edgeCount(t, r, []float64{0, 1, 2, 3})
	for i := range edges1 {
		if edges1[i] != edges2[i] {
			t.Fatalf("Reset changed the sequence: %v vs %v", edges1, edges2)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func edgeCount(t *testing.T, p Provider, times []float64) []int {
	t.Helper()
	out := make([]int, len(times))
	for i, tm := range times {
		g, _ := p.At(tm)
		out[i] = g.NumEdges()
	}
	return out
}

func TestResampleErrors(t *testing.T) {
	base, err := GNP(16, 0.3, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewResample(nil, 1, nil); !errors.Is(err, ErrDynamic) {
		t.Errorf("nil base: %v", err)
	}
	if _, err := NewResample(base, 0, buildCounter(16, 1, map[uint64]int{})); !errors.Is(err, ErrDynamic) {
		t.Errorf("zero period: %v", err)
	}
	if _, err := NewResample(base, 1, nil); !errors.Is(err, ErrDynamic) {
		t.Errorf("nil build: %v", err)
	}

	// Node-count drift is deferred: At keeps serving the last good
	// graph, Err reports the failure, Reset clears it.
	drift, err := NewResample(base, 1, func(epoch uint64) (*Graph, error) {
		if epoch == 2 {
			return GNP(8, 0.3, xrand.New(epoch))
		}
		return GNP(16, 0.3, xrand.New(epoch))
	})
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := drift.At(1)
	if g2, changed := drift.At(2); g2 != g1 || changed {
		t.Error("failed epoch did not keep serving the last good graph")
	}
	if err := drift.Err(); !errors.Is(err, ErrDynamic) {
		t.Errorf("Err after drift: %v", err)
	}
	drift.Reset()
	if drift.Err() != nil {
		t.Error("Reset did not clear the deferred error")
	}

	fail, err := NewResample(base, 1, func(uint64) (*Graph, error) {
		return nil, fmt.Errorf("generator exploded")
	})
	if err != nil {
		t.Fatal(err)
	}
	fail.At(1)
	if err := fail.Err(); err == nil {
		t.Error("build failure not deferred to Err")
	}
}

func TestPerturbDeterministicSequence(t *testing.T) {
	base, err := GNP(64, 0.15, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPerturb(base, 1, 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPerturb(base, 1, 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}

	// The evolution is sequential: jumping to epoch 4 must equal
	// stepping 1, 2, 3, 4 — skipped epochs are evolved through, so the
	// sequence does not depend on when it is sampled.
	jumped, _ := p1.At(4)
	var stepped *Graph
	for e := 1; e <= 4; e++ {
		stepped, _ = p2.At(float64(e))
	}
	if !sameEdges(jumped, stepped) {
		t.Error("jumped and stepped perturb sequences diverged")
	}

	// Reset replays identically.
	p1.Reset()
	replay, _ := p1.At(4)
	if !sameEdges(jumped, replay) {
		t.Error("Reset changed the perturb sequence")
	}

	// Defensive backward replay: a decreasing t replays from the base
	// and lands on the same epoch graph as stepping forward would.
	back, _ := p1.At(2)
	p2.Reset()
	fwd, _ := p2.At(2)
	if !sameEdges(back, fwd) {
		t.Error("backward replay diverged from the forward sequence")
	}

	// A different seed gives a different epoch-1 graph (overwhelmingly).
	p3, err := NewPerturb(base, 1, 0.3, 43)
	if err != nil {
		t.Fatal(err)
	}
	p2.Reset()
	g1, _ := p2.At(1)
	h1, _ := p3.At(1)
	if sameEdges(g1, h1) {
		t.Error("different perturb seeds produced identical epoch-1 graphs")
	}
}

// TestPerturbDensityBand: the edge-Markovian evolution approximately
// preserves the base density — after many epochs the edge count stays
// within a factor-2 band of the base (the process is stationary up to
// the documented slight upward bias from kept-edge re-assertion).
func TestPerturbDensityBand(t *testing.T) {
	base, err := GNP(100, 0.1, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPerturb(base, 1, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	m0 := base.NumEdges()
	for _, e := range []float64{10, 20, 40} {
		g, _ := p.At(e)
		m := g.NumEdges()
		if m < m0/2 || m > 2*m0 {
			t.Errorf("epoch %v: %d edges, base %d — density drifted out of the [0.5, 2] band", e, m, m0)
		}
	}
}

func TestPerturbErrors(t *testing.T) {
	base, err := GNP(16, 0.3, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0, -0.1, 1.5} {
		if _, err := NewPerturb(base, 1, rate, 1); !errors.Is(err, ErrDynamic) {
			t.Errorf("rate %v: %v", rate, err)
		}
	}
	if _, err := NewPerturb(base, 0, 0.5, 1); !errors.Is(err, ErrDynamic) {
		t.Errorf("zero period: %v", err)
	}
	if _, err := NewPerturb(nil, 1, 0.5, 1); !errors.Is(err, ErrDynamic) {
		t.Errorf("nil base: %v", err)
	}
}

func sameEdges(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	type pair struct{ u, v NodeID }
	set := map[pair]bool{}
	a.Edges(func(u, v NodeID) { set[pair{u, v}] = true })
	same := true
	b.Edges(func(u, v NodeID) {
		if !set[pair{u, v}] {
			same = false
		}
	})
	return same
}

// TestResampleKeepsEpochsAcrossReset: a Resample cursor builds each
// epoch once; after Reset a revisit returns the graph it built before,
// skipped epochs stay unbuilt, and a failed build is tried again.
func TestResampleKeepsEpochsAcrossReset(t *testing.T) {
	base, err := GNP(32, 0.2, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	built := map[uint64]int{}
	r, err := NewResample(base, 1, buildCounter(32, 7, built))
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0, 1.5, 2, 5, 7.25}
	first := make([]*Graph, len(times))
	for i, tm := range times {
		first[i], _ = r.At(tm)
	}
	for pass := 0; pass < 3; pass++ {
		r.Reset()
		for i, tm := range times {
			g, changed := r.At(tm)
			if g != first[i] {
				t.Fatalf("pass %d: At(%v) returned another graph than before the Reset", pass, tm)
			}
			if changed != (i > 0) {
				t.Fatalf("pass %d: At(%v) changed = %v", pass, tm, changed)
			}
		}
	}
	for _, e := range []uint64{1, 2, 5, 7} {
		if built[e] != 1 {
			t.Errorf("epoch %d built %d times over four walks, want 1", e, built[e])
		}
	}
	for _, e := range []uint64{3, 4, 6} {
		if built[e] != 0 {
			t.Errorf("skipped epoch %d was built %d times", e, built[e])
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}

	// A failed build is not kept: after the Reset the epoch is built
	// again, and this time it succeeds.
	calls := 0
	flaky, err := NewResample(base, 1, func(epoch uint64) (*Graph, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("generator exploded")
		}
		return GNP(32, 0.2, xrand.New(epoch))
	})
	if err != nil {
		t.Fatal(err)
	}
	if g, changed := flaky.At(1); g != base || changed || flaky.Err() == nil {
		t.Fatal("the failed build was not deferred to Err")
	}
	flaky.Reset()
	if g, changed := flaky.At(1); g == base || !changed || flaky.Err() != nil || calls != 2 {
		t.Fatalf("after Reset the failed epoch was not built again: %d calls, err %v", calls, flaky.Err())
	}
}

// TestPerturbKeepsChainAcrossReset: a Perturb cursor evolves its chain
// once; after Reset it returns the graphs it evolved before, evolves
// past the chain's end on demand, and the sequence equals a fresh
// cursor's edge for edge.
func TestPerturbKeepsChainAcrossReset(t *testing.T) {
	base, err := GNP(64, 0.15, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPerturb(base, 1, 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	const walked = 6
	var first [walked + 1]*Graph
	for e := 0; e <= walked; e++ {
		first[e], _ = p.At(float64(e))
	}
	p.Reset()
	if g, _ := p.At(4); g != first[4] {
		t.Fatal("a jump into the kept chain returned another graph than before the Reset")
	}
	for e := 5; e <= walked; e++ {
		if g, changed := p.At(float64(e)); g != first[e] || !changed {
			t.Fatalf("epoch %d after Reset: another graph than before, or unchanged", e)
		}
	}
	// Past the chain's end, and back into it (the defensive replay).
	far, _ := p.At(9)
	if g, _ := p.At(2); g != first[2] {
		t.Fatal("a backward replay returned another graph than the kept chain's")
	}
	if g, _ := p.At(9); g != far {
		t.Fatal("epoch 9 was evolved again though the chain kept it")
	}

	fresh, err := NewPerturb(base, 1, 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	p.Reset()
	for e := 0; e <= 9; e++ {
		want, _ := fresh.At(float64(e))
		got, _ := p.At(float64(e))
		if !sameEdges(got, want) {
			t.Fatalf("epoch %d differs from a fresh cursor's", e)
		}
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestKeptEpochsStayUnderCap: a cursor whose epochs are a few MB each
// keeps epochs until the next one would take its CSR bytes past
// keptEpochBytes, builds every later epoch again on each visit, and
// gives the same graphs either way.
func TestKeptEpochsStayUnderCap(t *testing.T) {
	const n = 1 << 18
	path, err := Path(n)
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := Cycle(n)
	if err != nil {
		t.Fatal(err)
	}
	// Odd epochs are the path, even ones the cycle: 16n and 16n + 8
	// CSR bytes.
	epochGraph := func(e uint64) *Graph {
		if e%2 == 1 {
			return path
		}
		return cycle
	}
	built := map[uint64]int{}
	r, err := NewResample(path, 1, func(e uint64) (*Graph, error) {
		built[e]++
		return epochGraph(e), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 40
	// The first epoch that does not fit: the sum of CSR bytes through it
	// exceeds the cap.
	var total int64
	var firstPast uint64
	for e := uint64(1); e <= epochs && firstPast == 0; e++ {
		g := epochGraph(e)
		if total += 8*int64(g.NumNodes()+1) + 8*int64(g.NumEdges()); total > keptEpochBytes {
			firstPast = e
		}
	}
	if firstPast == 0 || firstPast > epochs/2 {
		t.Fatalf("the cap binds at epoch %d of %d; the test needs it to bind early", firstPast, epochs)
	}
	for walk := 1; walk <= 2; walk++ {
		r.Reset()
		for e := uint64(1); e <= epochs; e++ {
			g, _ := r.At(float64(e))
			if g != epochGraph(e) {
				t.Fatalf("walk %d, epoch %d: another graph than the build's", walk, e)
			}
			if r.kept > keptEpochBytes {
				t.Fatalf("walk %d, epoch %d: %d kept bytes, cap %d", walk, e, r.kept, int64(keptEpochBytes))
			}
		}
	}
	for e := uint64(1); e <= epochs; e++ {
		want := 1
		if e >= firstPast {
			want = 2
		}
		if built[e] != want {
			t.Errorf("epoch %d built %d times over two walks, want %d (the cap binds at epoch %d)", e, built[e], want, firstPast)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}

	// A Perturb chain stops growing at the first epoch that does not
	// fit; later epochs are evolved again from its end, to the same
	// arrays.
	p, err := NewPerturb(path, 1, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	const evolved = 20
	var first [evolved + 1]*Graph
	for e := 1; e <= evolved; e++ {
		first[e], _ = p.At(float64(e))
		if p.kept > keptEpochBytes {
			t.Fatalf("perturb epoch %d: %d kept bytes, cap %d", e, p.kept, int64(keptEpochBytes))
		}
	}
	if len(p.chain) == 0 || len(p.chain) >= evolved {
		t.Fatalf("perturb kept %d of %d epochs; the test needs the cap to bind", len(p.chain), evolved)
	}
	p.Reset()
	for e := 1; e <= evolved; e++ {
		g, _ := p.At(float64(e))
		if kept := e <= len(p.chain); kept != (g == first[e]) {
			t.Fatalf("perturb epoch %d: kept %v, same graph %v", e, kept, g == first[e])
		}
		if !slices.Equal(g.offsets, first[e].offsets) || !slices.Equal(g.adj, first[e].adj) {
			t.Fatalf("perturb epoch %d evolved again to another graph", e)
		}
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
}
