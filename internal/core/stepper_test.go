package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

// stepperRow is one asynchronous scenario the Step-by-Step pin drives:
// its topology (a fresh cursor per call), its configuration, and
// whether its runs end on a tick that the schedule or the topology
// halts, which Step answers false although it counted the tick.
type stepperRow struct {
	name  string
	topo  func() graph.Provider
	cfg   AsyncConfig
	halts bool
}

// stepperRows are the pin's rows: each protocol, each view, a crash
// that strands the rumor, churn with an amnesiac rejoin, a lossy
// channel, a resampled topology, one whose second epoch fails to
// build, and a budget that ends inside a block.
func stepperRows(t *testing.T) []stepperRow {
	t.Helper()
	cube := mustGraph(graph.Hypercube(6))
	// Node 0 reaches most of this G(n, p), and some nodes are isolated,
	// so the per-edge view draws its actors from a list.
	sparse := mustGraph(graph.GNP(200, 1.5/200, xrand.New(3)))
	static := func(g *graph.Graph) func() graph.Provider {
		return func() graph.Provider { return graph.NewStatic(g) }
	}
	// resample's epoch fail does not build (epoch 0, the base, is never
	// built).
	resample := func(period float64, fail uint64) func() graph.Provider {
		return func() graph.Provider {
			p, err := graph.NewResample(cube, period, func(epoch uint64) (*graph.Graph, error) {
				if epoch == fail {
					return nil, errors.New("epoch unavailable")
				}
				return graph.GNP(64, 0.1, xrand.New(epoch))
			})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	return []stepperRow{
		{name: "push", topo: static(cube), cfg: AsyncConfig{Protocol: Push}},
		{name: "pull", topo: static(cube), cfg: AsyncConfig{Protocol: Pull}},
		{name: "push-pull", topo: static(cube), cfg: AsyncConfig{Protocol: PushPull}},
		{name: "per-node", topo: static(sparse), cfg: AsyncConfig{Protocol: PushPull, View: PerNodeClocks}},
		{name: "per-edge", topo: static(sparse), cfg: AsyncConfig{Protocol: PushPull, View: PerEdgeClocks}},
		{name: "global/isolated", topo: static(sparse), cfg: AsyncConfig{Protocol: Push}},
		{name: "crash strands", topo: static(mustGraph(graph.Path(6))),
			cfg: AsyncConfig{Protocol: PushPull, Crashes: []Crash{{Node: 2, Time: 0}}}, halts: true},
		{name: "churn amnesiac", topo: static(cube), cfg: AsyncConfig{Protocol: PushPull, Churn: []ChurnEvent{
			{Node: 1, Time: 1.5, Op: ChurnLeave}, {Node: 1, Time: 2.5, Op: ChurnJoin, DropState: true},
			{Node: 2, Time: 1.5, Op: ChurnLeave}, {Node: 2, Time: 2.5, Op: ChurnJoin, DropState: true},
			{Node: 4, Time: 2, Op: ChurnLeave}, {Node: 4, Time: 3, Op: ChurnJoin, DropState: true},
			{Node: 40, Time: 1, Op: ChurnLeave}, {Node: 40, Time: 3, Op: ChurnJoin},
		}}},
		{name: "lossy", topo: static(cube), cfg: AsyncConfig{Protocol: PushPull, TransmitProb: 0.5}},
		{name: "resample", topo: resample(0.5, 0), cfg: AsyncConfig{Protocol: PushPull, View: PerNodeClocks}},
		{name: "resample fails", topo: resample(0.05, 2), cfg: AsyncConfig{Protocol: Push}, halts: true},
		{name: "budget", topo: static(cube), cfg: AsyncConfig{Protocol: Push, MaxSteps: asyncBlock + 36}},
	}
}

// informingLog records a run's informing events in order.
type informingLog []informing

type informing struct {
	t       float64
	v, from graph.NodeID
}

func (l *informingLog) OnInformed(t float64, v, from graph.NodeID) {
	*l = append(*l, informing{t, v, from})
}

// stepByStep drives s, whose observer is log, one Step at a time to the
// end of its run, or to budget as Trial.Run ends one, and returns the
// answer of the last Step that executed a tick and the error Trial.Run
// would. Each Step executes at most one tick, and every informing it
// reports happens at that tick's time.
func stepByStep(t *testing.T, s *AsyncStepper, log *informingLog, budget int64) (last bool, err error) {
	t.Helper()
	for {
		before, prev, seen := s.Steps(), s.Time(), len(*log)
		ok := s.Step()
		switch moved := s.Steps() - before; {
		case moved > 1 || moved == 0 && ok:
			t.Fatalf("Step answered %v and executed %d ticks", ok, moved)
		case moved == 1:
			if s.Time() <= prev {
				t.Fatalf("tick %d: Time() %v after %v", s.Steps(), s.Time(), prev)
			}
			last = ok
		}
		for _, ev := range (*log)[seen:] {
			if ev.t != s.Time() {
				t.Fatalf("tick %d at %v informed node %d at %v", s.Steps(), s.Time(), ev.v, ev.t)
			}
		}
		if !ok {
			return last, s.Err()
		}
		if s.Steps() >= budget && !s.Finished() {
			s.release(false) // the run ends here, as Trial.Run ends one
			return last, ErrBudget
		}
	}
}

// TestAsyncStepperStepGranularity: a stepper driven one Step at a time
// ends where Trial.Run ends the same scenario under the same generator —
// the informing events in order, InformedAt, Parent, Time, Steps, the
// error and the generator's next draw — over several seeds on one
// stepper, the first run abandoned inside a block, so Reset must drop
// the ticks it drew. Each Step executes at most one tick, informs only
// at its time, and answers false on the tick a schedule or a topology
// halts although Steps counts it.
func TestAsyncStepperStepGranularity(t *testing.T) {
	for _, row := range stepperRows(t) {
		t.Run(row.name, func(t *testing.T) {
			var wantLog, log informingLog
			cfg := row.cfg
			cfg.Observer = &wantLog
			trial, err := NewTrial(row.topo(), 0, cfg, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Observer = &log
			s, err := newAsyncStepper(row.topo(), 0, cfg, xrand.New(1))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5 && s.Step(); i++ { // abandoned
			}
			for seed := uint64(7); seed < 10; seed++ {
				wantRNG, rng := xrand.New(seed), xrand.New(seed)
				out, werr := trial.Run(wantRNG) // a fresh trial announced its source in NewTrial
				want := out.Async
				log = log[:0]
				s.Reset(rng)
				last, err := stepByStep(t, s, &log, trial.budget)
				got := s.Result()
				sameErr := fmt.Sprint(err) == fmt.Sprint(werr)
				if err == ErrBudget {
					sameErr = errors.Is(werr, ErrBudget)
				}
				if !sameErr {
					t.Fatalf("seed %d: Step by Step ends with %v, Trial.Run with %v", seed, err, werr)
				}
				if !slices.Equal(log, wantLog) {
					t.Fatalf("seed %d: Step by Step informs %d times, Trial.Run %d, or in another order", seed, len(log), len(wantLog))
				}
				wantLog = wantLog[:0]
				if !equalAsync(got, want) {
					t.Fatalf("seed %d: Step by Step ends at %v/%d with %d informed, Trial.Run at %v/%d with %d",
						seed, got.Time, got.Steps, got.NumInformed, want.Time, want.Steps, want.NumInformed)
				}
				if last == row.halts {
					t.Fatalf("seed %d: the run's last tick answered %v; the row halts: %v", seed, last, row.halts)
				}
				if g, w := rng.Uint64(), wantRNG.Uint64(); g != w {
					t.Fatalf("seed %d: generator left at %x, Trial.Run leaves it at %x", seed, g, w)
				}
			}
		})
	}
}
