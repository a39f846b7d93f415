package core

import (
	"errors"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// runQuasirandomSync runs the quasirandom protocol once on a static graph.
func runQuasirandomSync(g *graph.Graph, src graph.NodeID, cfg SyncConfig, rng *xrand.RNG) (*SyncResult, error) {
	out, err := runOnce(graph.NewStatic(g), src, cfg, 0, true, rng)
	return out.Sync, err
}

func TestQuasirandomCompletes(t *testing.T) {
	graphs := []*graph.Graph{
		mustGraph(graph.Complete(64)),
		mustGraph(graph.Hypercube(6)),
		mustGraph(graph.Star(64)),
		mustGraph(graph.Cycle(32)),
	}
	for _, g := range graphs {
		for _, p := range []Protocol{Push, Pull, PushPull} {
			res, err := runQuasirandomSync(g, 0, SyncConfig{Protocol: p}, xrand.New(uint64(p)))
			if err != nil {
				t.Fatalf("%v/%v: %v", g, p, err)
			}
			checkSyncResult(t, g, 0, res)
			if !res.Complete {
				t.Fatalf("%v/%v: incomplete", g, p)
			}
		}
	}
}

func TestQuasirandomDeterministic(t *testing.T) {
	g := mustGraph(graph.Hypercube(6))
	a, err := runQuasirandomSync(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runQuasirandomSync(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds {
		t.Fatal("quasirandom not deterministic")
	}
}

func TestQuasirandomCyclicCoverage(t *testing.T) {
	// A quasirandom pusher visits all neighbors within deg rounds of its
	// informing: on a star with the center as source and push-only, all
	// leaves are informed after EXACTLY n-1 rounds (one new leaf per
	// round, cyclic — no coupon collection).
	n := 64
	g := mustGraph(graph.Star(n))
	for seed := uint64(0); seed < 5; seed++ {
		res, err := runQuasirandomSync(g, 0, SyncConfig{Protocol: Push}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != n-1 {
			t.Fatalf("quasirandom star push rounds = %d, want exactly %d", res.Rounds, n-1)
		}
	}
}

func TestQuasirandomMuchFasterThanRandomOnStarPush(t *testing.T) {
	// The derandomization's headline effect: random push on the star is
	// Θ(n log n) (coupon collection), quasirandom is exactly n-1.
	n := 128
	g := mustGraph(graph.Star(n))
	random, err := RunSync(g, 0, SyncConfig{Protocol: Push}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	qr, err := runQuasirandomSync(g, 0, SyncConfig{Protocol: Push}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if qr.Rounds*2 >= random.Rounds {
		t.Fatalf("quasirandom (%d) not much faster than random (%d) on star push", qr.Rounds, random.Rounds)
	}
}

func TestQuasirandomComparableOnExpander(t *testing.T) {
	g := mustGraph(graph.Hypercube(7))
	const trials = 40
	var random, qr float64
	for seed := uint64(0); seed < trials; seed++ {
		a, err := RunSync(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := runQuasirandomSync(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(seed+trials))
		if err != nil {
			t.Fatal(err)
		}
		random += float64(a.Rounds)
		qr += float64(b.Rounds)
	}
	ratio := qr / random
	if ratio < 0.5 || ratio > 1.5 {
		t.Fatalf("quasirandom/random mean ratio = %v on hypercube", ratio)
	}
}

func TestQuasirandomRejectsCrashes(t *testing.T) {
	g := mustGraph(graph.Cycle(8))
	_, err := runQuasirandomSync(g, 0, SyncConfig{
		Protocol: PushPull,
		Crashes:  []Crash{{Node: 1, Time: 1}},
	}, xrand.New(1))
	if !errors.Is(err, ErrBadCrash) {
		t.Fatalf("err = %v, want ErrBadCrash", err)
	}
}

func TestQuasirandomMultiSource(t *testing.T) {
	g := mustGraph(graph.Path(32))
	res, err := runQuasirandomSync(g, 0, SyncConfig{
		Protocol:     PushPull,
		ExtraSources: []graph.NodeID{31},
	}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.InformedAt[31] != 0 {
		t.Fatal("quasirandom multi-source broken")
	}
}

func TestQuasirandomBudget(t *testing.T) {
	g := mustGraph(graph.Path(64))
	_, err := runQuasirandomSync(g, 0, SyncConfig{Protocol: PushPull, MaxRounds: 2}, xrand.New(3))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}
