package core

import (
	"math"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

func TestSyncStepperMatchesRunSync(t *testing.T) {
	g := mustGraph(graph.Hypercube(6))
	full, err := RunSync(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	stepper, err := NewSyncStepper(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for stepper.Step() {
	}
	res := stepper.Result()
	if res.Rounds != full.Rounds || res.NumInformed != full.NumInformed {
		t.Fatalf("stepper result differs: %d/%d vs %d/%d",
			res.Rounds, res.NumInformed, full.Rounds, full.NumInformed)
	}
	for v := range res.InformedAt {
		if res.InformedAt[v] != full.InformedAt[v] {
			t.Fatalf("node %d informed at %d vs %d", v, res.InformedAt[v], full.InformedAt[v])
		}
	}
}

func TestSyncStepperMonotoneProgress(t *testing.T) {
	g := mustGraph(graph.Complete(64))
	stepper, err := NewSyncStepper(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	prev := stepper.NumInformed()
	if prev != 1 {
		t.Fatalf("initial informed count %d", prev)
	}
	rounds := 0
	for stepper.Step() {
		rounds++
		cur := stepper.NumInformed()
		if cur < prev {
			t.Fatal("informed count decreased")
		}
		if stepper.Round() != rounds {
			t.Fatalf("Round() = %d, want %d", stepper.Round(), rounds)
		}
		prev = cur
	}
	if !stepper.Finished() {
		t.Fatal("stepper not finished after Step returned false")
	}
	if stepper.Step() {
		t.Fatal("Step after finish executed a round")
	}
	if !stepper.Informed(63) {
		t.Fatal("node 63 not informed at completion on K_64")
	}
}

func TestSyncStepperEarlyStop(t *testing.T) {
	// Stop externally at 50% coverage: the stepper supports interleaving.
	g := mustGraph(graph.Complete(100))
	stepper, err := NewSyncStepper(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for stepper.NumInformed() < 50 && stepper.Step() {
	}
	if stepper.NumInformed() < 50 {
		t.Fatal("never reached 50% on K_100")
	}
	res := stepper.Result()
	if res.Complete {
		t.Fatal("snapshot claims complete at partial coverage")
	}
}

func TestAsyncStepperMatchesRunAsync(t *testing.T) {
	g := mustGraph(graph.Hypercube(5))
	full, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	stepper, err := NewAsyncStepper(g, 0, AsyncConfig{Protocol: PushPull}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for stepper.Step() {
	}
	res := stepper.Result()
	if res.Time != full.Time || res.Steps != full.Steps {
		t.Fatalf("async stepper differs: %v/%d vs %v/%d", res.Time, res.Steps, full.Time, full.Steps)
	}
}

func TestAsyncStepperTimeIncreases(t *testing.T) {
	g := mustGraph(graph.Complete(32))
	stepper, err := NewAsyncStepper(g, 0, AsyncConfig{Protocol: PushPull}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for stepper.Step() {
		if stepper.Time() <= prev {
			t.Fatal("time did not advance")
		}
		prev = stepper.Time()
	}
	if stepper.NumInformed() != 32 {
		t.Fatalf("only %d informed at completion", stepper.NumInformed())
	}
}

func TestCurveFromSyncResult(t *testing.T) {
	g := mustGraph(graph.Complete(100))
	res, err := RunSync(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Curve()
	if len(c.Times) == 0 {
		t.Fatal("empty curve")
	}
	if c.Times[0] != 0 || c.Fractions[0] != 0.01 {
		t.Fatalf("curve start (%v, %v), want (0, 0.01)", c.Times[0], c.Fractions[0])
	}
	last := c.Fractions[len(c.Fractions)-1]
	if last != 1.0 {
		t.Fatalf("curve end fraction %v", last)
	}
	// Monotone in both coordinates.
	for i := 1; i < len(c.Times); i++ {
		if c.Times[i] <= c.Times[i-1] || c.Fractions[i] <= c.Fractions[i-1] {
			t.Fatal("curve not strictly increasing")
		}
	}
}

func TestCurveFractionAt(t *testing.T) {
	c := &Curve{Times: []float64{0, 1, 3}, Fractions: []float64{0.1, 0.5, 1}}
	cases := []struct{ t, want float64 }{
		{-1, 0}, {0, 0.1}, {0.5, 0.1}, {1, 0.5}, {2.9, 0.5}, {3, 1}, {99, 1},
	}
	for _, tc := range cases {
		if got := c.FractionAt(tc.t); got != tc.want {
			t.Errorf("FractionAt(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestCurveFromAsyncResult(t *testing.T) {
	g := mustGraph(graph.Complete(64))
	res, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Curve()
	if got := c.FractionAt(res.Time); math.Abs(got-1) > 1e-12 {
		t.Fatalf("fraction at completion = %v", got)
	}
	if got := c.FractionAt(0); math.Abs(got-1.0/64) > 1e-12 {
		t.Fatalf("fraction at 0 = %v, want 1/64", got)
	}
	// Consistency with CoverageTime: FractionAt(CoverageTime(f)) >= f.
	for _, f := range []float64{0.25, 0.5, 0.75} {
		ct := res.CoverageTime(f)
		if got := c.FractionAt(ct); got < f {
			t.Fatalf("FractionAt(CoverageTime(%v)) = %v < %v", f, got, f)
		}
	}
}

func TestCurveEmpty(t *testing.T) {
	c := buildCurve(nil, 10)
	if len(c.Times) != 0 || c.FractionAt(5) != 0 {
		t.Fatal("empty curve not degenerate")
	}
}

func TestSyncStepperWithCrashesFinishes(t *testing.T) {
	g := mustGraph(graph.Path(6))
	stepper, err := NewSyncStepper(g, 0, SyncConfig{
		Protocol: PushPull,
		Crashes:  []Crash{{Node: 3, Time: 0}},
	}, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for stepper.Step() {
		steps++
		if steps > 1000 {
			t.Fatal("stepper did not halt despite isolation")
		}
	}
	if stepper.NumInformed() > 3 {
		t.Fatalf("rumor crossed crashed node: %d informed", stepper.NumInformed())
	}
}

// TestAsyncStepperStepGranularity: the stepper draws ticks a block at a
// time but executes one per Step, and everything a caller can read
// between two Steps is that one tick's state. Driven by hand, the
// per-tick trace of (Time, Steps, NumInformed, Informed) reproduces the
// whole run's InformedAt — over several block boundaries, and again
// after a Reset in the middle of a block, which must drop the ticks
// drawn from the old generator. The generator ends where the whole run
// leaves it.
func TestAsyncStepperStepGranularity(t *testing.T) {
	g := mustGraph(graph.Hypercube(6))
	cfg := AsyncConfig{Protocol: PushPull}
	n := g.NumNodes()
	stepper, err := NewAsyncStepper(g, 0, cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(stepper.block) != asyncBlock {
		t.Fatalf("block length %d, want %d", len(stepper.block), asyncBlock)
	}
	for i := 0; i < asyncBlock/2-3; i++ { // abandon the first run mid-block
		stepper.Step()
	}
	for seed := uint64(7); seed < 10; seed++ {
		wantRNG := xrand.New(seed)
		want, err := RunAsync(g, 0, cfg, wantRNG)
		if err != nil {
			t.Fatal(err)
		}
		if want.Steps <= 2*asyncBlock {
			t.Fatalf("seed %d: run of %d ticks does not cross two block boundaries", seed, want.Steps)
		}
		rng := xrand.New(seed)
		stepper.Reset(rng)
		at := make([]float64, n)
		for v := range at {
			at[v] = -1
		}
		at[0] = 0
		informed, prev := 1, 0.0
		for steps := int64(1); stepper.Step(); steps++ {
			if stepper.Steps() != steps || stepper.Time() <= prev {
				t.Fatalf("seed %d tick %d: Steps() = %d, Time() = %v after %v", seed, steps, stepper.Steps(), stepper.Time(), prev)
			}
			prev = stepper.Time()
			for v := 0; v < n; v++ {
				if at[v] < 0 && stepper.Informed(graph.NodeID(v)) {
					at[v] = stepper.Time()
					informed++
				}
			}
			if stepper.NumInformed() != informed {
				t.Fatalf("seed %d tick %d: NumInformed() = %d, trace has %d", seed, steps, stepper.NumInformed(), informed)
			}
		}
		if stepper.Steps() != want.Steps || stepper.Time() != want.Time {
			t.Fatalf("seed %d: hand-driven run ended at %v/%d, whole run at %v/%d",
				seed, stepper.Time(), stepper.Steps(), want.Time, want.Steps)
		}
		for v := range at {
			if at[v] != want.InformedAt[v] {
				t.Fatalf("seed %d: node %d seen informed at %v, InformedAt says %v", seed, v, at[v], want.InformedAt[v])
			}
		}
		if got, want := rng.Uint64(), wantRNG.Uint64(); got != want {
			t.Fatalf("seed %d: generator left at %x, the whole run leaves it at %x", seed, got, want)
		}
	}
}
