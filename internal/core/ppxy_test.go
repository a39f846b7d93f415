package core

import (
	"errors"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/stats"
	"rumor/internal/xrand"
)

func TestRunPPVariantCompletes(t *testing.T) {
	g := mustGraph(graph.Hypercube(6))
	for _, variant := range []PPVariant{PPX, PPY} {
		res, err := RunPPVariant(g, 0, variant, SyncConfig{}, xrand.New(uint64(variant)))
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		checkSyncResult(t, g, 0, res)
		if !res.Complete {
			t.Fatalf("%v did not complete", variant)
		}
	}
}

func TestRunPPVariantRejectsNonPushPull(t *testing.T) {
	g := mustGraph(graph.Cycle(5))
	if _, err := RunPPVariant(g, 0, PPX, SyncConfig{Protocol: Push}, xrand.New(1)); !errors.Is(err, ErrBadProtocol) {
		t.Error("ppx with push-only accepted")
	}
	if _, err := RunPPVariant(g, 0, PPVariant(5), SyncConfig{}, xrand.New(1)); !errors.Is(err, ErrBadProtocol) {
		t.Error("unknown variant accepted")
	}
}

func TestRunPPVariantDeterministic(t *testing.T) {
	g := mustGraph(graph.Complete(32))
	a, err := RunPPVariant(g, 0, PPY, SyncConfig{}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPPVariant(g, 0, PPY, SyncConfig{}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds {
		t.Fatal("ppy not deterministic")
	}
}

// Lemma 6 (empirical): T(ppx) is stochastically dominated by T(pp).
func TestLemma6PPXDominatedByPP(t *testing.T) {
	graphs := []*graph.Graph{
		mustGraph(graph.Complete(64)),
		mustGraph(graph.Hypercube(6)),
		mustGraph(graph.Star(64)),
	}
	const trials = 300
	for _, g := range graphs {
		ppx := make([]int64, trials)
		pp := make([]int64, trials)
		for i := 0; i < trials; i++ {
			a, err := RunPPVariant(g, 0, PPX, SyncConfig{}, xrand.New(uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunSync(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(uint64(i+trials)))
			if err != nil {
				t.Fatal(err)
			}
			ppx[i] = int64(a.Rounds)
			pp[i] = int64(b.Rounds)
		}
		// Allow empirical slack: KS-type deviation of two samples of 300
		// is ~0.08 at 95%; use 0.12.
		if !stats.DominatedEmpiricallyInt(ppx, pp, 0.12) {
			t.Errorf("%v: T(ppx) not dominated by T(pp)", g)
		}
	}
}

// Lemma 9 direction check (loose, empirical): ppy completes within
// 2·T(ppx) + O(log n) on typical graphs.
func TestLemma9PPYWithinBound(t *testing.T) {
	graphs := []*graph.Graph{
		mustGraph(graph.Complete(64)),
		mustGraph(graph.Hypercube(6)),
		mustGraph(graph.Star(128)),
	}
	const trials = 100
	for _, g := range graphs {
		var ppxMax, ppyMax int
		for i := 0; i < trials; i++ {
			a, err := RunPPVariant(g, 0, PPX, SyncConfig{}, xrand.New(uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunPPVariant(g, 0, PPY, SyncConfig{}, xrand.New(uint64(i+trials)))
			if err != nil {
				t.Fatal(err)
			}
			if a.Rounds > ppxMax {
				ppxMax = a.Rounds
			}
			if b.Rounds > ppyMax {
				ppyMax = b.Rounds
			}
		}
		logN := ilog2(g.NumNodes())
		bound := 2*ppxMax + 12*logN
		if ppyMax > bound {
			t.Errorf("%v: max T(ppy) = %d exceeds 2·max T(ppx) + O(log n) = %d", g, ppyMax, bound)
		}
	}
}

// PPX pulls with probability 1 once half the neighborhood is informed: on
// a star whose center starts informed, every leaf has k=1 >= deg/2, so all
// leaves are informed after exactly one round.
func TestPPXHalfRuleOnStar(t *testing.T) {
	g := mustGraph(graph.Star(128))
	for seed := uint64(0); seed < 10; seed++ {
		res, err := RunPPVariant(g, 0, PPX, SyncConfig{}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != 1 {
			t.Fatalf("seed %d: ppx from star center took %d rounds, want 1", seed, res.Rounds)
		}
	}
}

// PPY from the star center has per-leaf pull probability 1 - e^{-2} per
// round; completion is a coupon-collector-like Θ(log n), strictly more
// than one round for large n.
func TestPPYNoHalfRuleOnStar(t *testing.T) {
	g := mustGraph(graph.Star(512))
	slow := 0
	for seed := uint64(0); seed < 10; seed++ {
		res, err := RunPPVariant(g, 0, PPY, SyncConfig{}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds > 1 {
			slow++
		}
	}
	if slow < 8 {
		t.Fatalf("ppy finished in one round in %d/10 runs; half-rule leak?", 10-slow)
	}
}

func TestRunPPVariantDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	res, err := RunPPVariant(g, 0, PPX, SyncConfig{}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || res.NumInformed != 2 {
		t.Fatalf("disconnected ppx: complete=%v informed=%d", res.Complete, res.NumInformed)
	}
}

func TestRunPPVariantBudget(t *testing.T) {
	g := mustGraph(graph.Path(64))
	_, err := RunPPVariant(g, 0, PPY, SyncConfig{MaxRounds: 2}, xrand.New(4))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestPPVariantString(t *testing.T) {
	if PPX.String() != "ppx" || PPY.String() != "ppy" {
		t.Error("variant names wrong")
	}
	if PPVariant(9).String() != "PPVariant(9)" {
		t.Error("unknown variant name wrong")
	}
}
