package harness

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"rumor/internal/core"
	"rumor/internal/graph"
	"rumor/internal/stats"
	"rumor/internal/xrand"
)

func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	fn := func(trial int, rng *xrand.RNG) (float64, error) {
		return rng.Float64() + float64(trial), nil
	}
	serial, err := Runner{Trials: 50, Seed: 1, Workers: 1}.Run(fn)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Trials: 50, Seed: 1, Workers: 8}.Run(fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("trial %d differs: %v vs %v", i, serial[i], parallel[i])
		}
	}
}

func TestRunnerDifferentSeedsDiffer(t *testing.T) {
	fn := func(_ int, rng *xrand.RNG) (float64, error) { return rng.Float64(), nil }
	a, _ := Runner{Trials: 10, Seed: 1}.Run(fn)
	b, _ := Runner{Trials: 10, Seed: 2}.Run(fn)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == 10 {
		t.Fatal("different seeds produced identical results")
	}
}

func TestRunnerPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := Runner{Trials: 20, Seed: 1, Workers: 4}.Run(func(trial int, _ *xrand.RNG) (float64, error) {
		if trial == 7 {
			return 0, sentinel
		}
		return 1, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestRunnerRejectsZeroTrials(t *testing.T) {
	_, err := Runner{Trials: 0, Seed: 1}.Run(func(int, *xrand.RNG) (float64, error) { return 0, nil })
	if !errors.Is(err, ErrNoTrials) {
		t.Fatalf("err = %v, want ErrNoTrials", err)
	}
}

func TestRunnerRunsEveryTrialOnce(t *testing.T) {
	var count int64
	res, err := Runner{Trials: 37, Seed: 1, Workers: 5}.Run(func(trial int, _ *xrand.RNG) (float64, error) {
		atomic.AddInt64(&count, 1)
		return float64(trial), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 37 {
		t.Fatalf("ran %d trials, want 37", count)
	}
	for i, v := range res {
		if v != float64(i) {
			t.Fatalf("result %d = %v", i, v)
		}
	}
}

func TestStandardFamiliesBuildConnected(t *testing.T) {
	for _, f := range StandardFamilies() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			g, err := f.Build(120, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !f.MaybeDisconnected && !graph.IsConnected(g) {
				t.Fatalf("%s instance disconnected", f.Name)
			}
			n := g.NumNodes()
			if n < 30 || n > 400 {
				t.Fatalf("%s size %d far from target 120", f.Name, n)
			}
			if f.Regular {
				if _, ok := g.Regularity(); !ok {
					t.Fatalf("%s claims regular but is not", f.Name)
				}
			}
		})
	}
}

func TestFamilyByName(t *testing.T) {
	f, err := FamilyByName("hypercube")
	if err != nil || f.Name != "hypercube" {
		t.Fatalf("FamilyByName: %v, %v", f.Name, err)
	}
	if _, err := FamilyByName("nope"); err == nil {
		t.Fatal("unknown family accepted")
	}
	names := FamilyNames()
	if len(names) != len(StandardFamilies()) {
		t.Fatal("FamilyNames length mismatch")
	}
}

// The family table is built once and shared by every lookup, so the
// slice StandardFamilies hands out must be the caller's own.
func TestStandardFamiliesReturnsACopy(t *testing.T) {
	fams := StandardFamilies()
	first := fams[0].Name
	fams[0] = Family{Name: "clobbered"}
	if f, err := FamilyByName(first); err != nil || f.Name != first || f.Build == nil {
		t.Errorf("FamilyByName(%q) after mutating a returned slice = %+v, %v", first, f, err)
	}
	if _, err := FamilyByName("clobbered"); err == nil {
		t.Error("a caller's write reached the shared family table")
	}
	if got := StandardFamilies()[0].Name; got != first {
		t.Errorf("StandardFamilies()[0] = %q after the mutation, want %q", got, first)
	}
}

func TestRegularFamilies(t *testing.T) {
	for _, f := range RegularFamilies() {
		if !f.Regular {
			t.Fatalf("%s in RegularFamilies but not regular", f.Name)
		}
	}
	if len(RegularFamilies()) < 4 {
		t.Fatal("too few regular families")
	}
}

func TestMeasureSyncStar(t *testing.T) {
	g, err := graph.Star(128)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MeasureSync(g, 1, core.PushPull, 50, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Times) != 50 {
		t.Fatalf("got %d times", len(m.Times))
	}
	for _, v := range m.Times {
		if v < 1 || v > 2 {
			t.Fatalf("star sync push-pull time %v outside [1,2]", v)
		}
	}
}

func TestMeasureAsyncViewsAgree(t *testing.T) {
	g, err := graph.Complete(48)
	if err != nil {
		t.Fatal(err)
	}
	a, err := MeasureAsyncView(g, 0, core.PushPull, core.GlobalClock, 80, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureAsyncView(g, 0, core.PushPull, core.PerNodeClocks, 80, 55, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.KolmogorovSmirnov(a.Times, b.Times).PValue < 0.001 {
		t.Fatal("global-clock and per-node views differ distributionally")
	}
}

func TestMeasurePPVariant(t *testing.T) {
	g, err := graph.Hypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MeasurePPVariant(g, 0, core.PPX, 30, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range m.Times {
		if v < 1 {
			t.Fatalf("ppx time %v < 1", v)
		}
	}
}

func TestMeasureErrorsPropagate(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	if _, err := MeasureSync(g, 0, core.PushPull, 5, 1, 0); err == nil {
		t.Fatal("disconnected graph accepted")
	}
	if _, err := MeasureAsync(g, 0, core.PushPull, 5, 1, 0); err == nil {
		t.Fatal("disconnected graph accepted by async")
	}
}

// TestMeasureCompletenessRule: on two disjoint cliques the rumor stops
// at the source's component. Every spreading-time sampler reports that
// as an error (ppx/ppy used to return finite "spreading times").
func TestMeasureCompletenessRule(t *testing.T) {
	b := graph.NewBuilder(16).SetName("two-cliques")
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			b.AddEdge(graph.NodeID(u+8), graph.NodeID(v+8))
		}
	}
	g := b.MustBuild()
	samplers := map[string]func() (*Measurement, error){
		"MeasureSync":           func() (*Measurement, error) { return MeasureSync(g, 0, core.PushPull, 5, 1, 0) },
		"MeasureAsync":          func() (*Measurement, error) { return MeasureAsync(g, 0, core.PushPull, 5, 1, 0) },
		"MeasureAsyncView/node": func() (*Measurement, error) { return MeasureAsyncView(g, 0, core.Push, core.PerNodeClocks, 5, 1, 0) },
		"MeasureAsyncView/edge": func() (*Measurement, error) { return MeasureAsyncView(g, 0, core.Pull, core.PerEdgeClocks, 5, 1, 0) },
		"MeasurePPVariant/ppx":  func() (*Measurement, error) { return MeasurePPVariant(g, 0, core.PPX, 5, 1, 0) },
		"MeasurePPVariant/ppy":  func() (*Measurement, error) { return MeasurePPVariant(g, 0, core.PPY, 5, 1, 0) },
	}
	for name, sample := range samplers {
		if m, err := sample(); err == nil {
			t.Errorf("%s: disconnected graph accepted (times %v)", name, m.Times)
		}
	}
}

func ExampleRunner() {
	r := Runner{Trials: 3, Seed: 42, Workers: 1}
	results, _ := r.Run(func(trial int, rng *xrand.RNG) (float64, error) {
		return float64(trial) * 10, nil
	})
	fmt.Println(results)
	// Output: [0 10 20]
}

// TestFamilyEdgeEstimates: each family's Edges is within a factor of 2
// of the instance Build makes, at the size it rounds to, and
// nondecreasing in n — admission relies on both.
func TestFamilyEdgeEstimates(t *testing.T) {
	for _, fam := range StandardFamilies() {
		for _, n := range []int{64, 1024, 4096} {
			g, err := fam.Build(n, 1)
			if err != nil {
				t.Fatalf("%s(%d): %v", fam.Name, n, err)
			}
			est, got := fam.Edges(n), float64(g.NumEdges())
			if est > 2*got || got > 2*est {
				t.Errorf("%s(%d): estimate %.0f edges, built %.0f", fam.Name, n, est, got)
			}
		}
		for n := 2; n <= 1<<16; n++ {
			if fam.Edges(n) < fam.Edges(n-1) {
				t.Errorf("%s: Edges(%d) = %v < Edges(%d) = %v", fam.Name, n, fam.Edges(n), n-1, fam.Edges(n-1))
				break
			}
		}
	}
}
