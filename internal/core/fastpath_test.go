package core

import (
	"math"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/stats"
	"rumor/internal/xrand"
)

// --- Reset-reuse equals fresh steppers ---

func snapshotSync(r *SyncResult) *SyncResult {
	c := *r
	c.InformedAt = append([]int32(nil), r.InformedAt...)
	c.Parent = append([]graph.NodeID(nil), r.Parent...)
	return &c
}

func snapshotAsync(r *AsyncResult) *AsyncResult {
	c := *r
	c.InformedAt = append([]float64(nil), r.InformedAt...)
	c.Parent = append([]graph.NodeID(nil), r.Parent...)
	return &c
}

func equalSync(a, b *SyncResult) bool {
	if a.Rounds != b.Rounds || a.NumInformed != b.NumInformed ||
		a.Complete != b.Complete || a.Updates != b.Updates {
		return false
	}
	for i := range a.InformedAt {
		if a.InformedAt[i] != b.InformedAt[i] || a.Parent[i] != b.Parent[i] {
			return false
		}
	}
	return true
}

func equalAsync(a, b *AsyncResult) bool {
	if a.Time != b.Time || a.Steps != b.Steps || a.NumInformed != b.NumInformed ||
		a.Complete != b.Complete {
		return false
	}
	for i := range a.InformedAt {
		if a.InformedAt[i] != b.InformedAt[i] || a.Parent[i] != b.Parent[i] {
			return false
		}
	}
	return true
}

// A reused stepper after Reset must be bit-identical to a freshly
// constructed stepper driven by the same RNG — across protocols and the
// extension configs (loss, multi-source, crashes).
func TestSyncStepperResetEqualsFresh(t *testing.T) {
	g := mustGraph(graph.Hypercube(5))
	configs := map[string]SyncConfig{
		"push":      {Protocol: Push},
		"pull":      {Protocol: Pull},
		"push-pull": {Protocol: PushPull},
		"lossy":     {Protocol: PushPull, TransmitProb: 0.6},
		"multisrc":  {Protocol: PushPull, ExtraSources: []graph.NodeID{7, 21}},
		"crashes": {Protocol: PushPull, Crashes: []Crash{
			{Node: 3, Time: 2}, {Node: 11, Time: 4}, {Node: 30, Time: 1},
		}},
	}
	const trials = 6
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			root := xrand.New(0xfeed)
			reused, err := NewSyncStepper(g, 0, cfg, root.Child(0))
			if err != nil {
				t.Fatal(err)
			}
			for trial := uint64(0); trial < trials; trial++ {
				if trial > 0 {
					reused.Reset(root.Child(trial))
				}
				for reused.Step() {
				}
				got := snapshotSync(reused.Result())
				fresh, err := NewSyncStepper(g, 0, cfg, root.Child(trial))
				if err != nil {
					t.Fatal(err)
				}
				for fresh.Step() {
				}
				want := fresh.Result()
				if !equalSync(got, want) {
					t.Fatalf("trial %d: reused stepper diverged from fresh (rounds %d vs %d, informed %d vs %d)",
						trial, got.Rounds, want.Rounds, got.NumInformed, want.NumInformed)
				}
			}
		})
	}
}

func TestAsyncStepperResetEqualsFresh(t *testing.T) {
	g := mustGraph(graph.Star(33))
	configs := map[string]AsyncConfig{
		"global":       {Protocol: PushPull},
		"per-node":     {Protocol: PushPull, View: PerNodeClocks},
		"per-edge":     {Protocol: Push, View: PerEdgeClocks},
		"lossy-pull":   {Protocol: Pull, TransmitProb: 0.5},
		"crash-global": {Protocol: PushPull, Crashes: []Crash{{Node: 5, Time: 0.5}}},
	}
	const trials = 6
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			root := xrand.New(0xabba)
			reused, err := NewAsyncStepper(g, 0, cfg, root.Child(0))
			if err != nil {
				t.Fatal(err)
			}
			for trial := uint64(0); trial < trials; trial++ {
				if trial > 0 {
					reused.Reset(root.Child(trial))
				}
				for reused.Step() {
				}
				got := snapshotAsync(reused.Result())
				fresh, err := NewAsyncStepper(g, 0, cfg, root.Child(trial))
				if err != nil {
					t.Fatal(err)
				}
				for fresh.Step() {
				}
				if !equalAsync(got, fresh.Result()) {
					t.Fatalf("trial %d: reused async stepper diverged from fresh", trial)
				}
			}
		})
	}
}

// Steady-state trials on a reused stepper must not allocate (the arena
// claim behind the cold-suite speedup).
func TestSteppersZeroAllocSteadyState(t *testing.T) {
	g := mustGraph(graph.Hypercube(6))
	root := xrand.New(5)
	sync, err := NewSyncStepper(g, 0, SyncConfig{Protocol: PushPull}, root.Child(0))
	if err != nil {
		t.Fatal(err)
	}
	for sync.Step() {
	}
	// Child streams are pre-built: the one allocation per trial in real
	// use is the *RNG itself, which the service also reuses.
	children := make([]*xrand.RNG, 0, 128)
	for i := uint64(1); i <= 128; i++ {
		children = append(children, root.Child(i))
	}
	trial := 0
	allocs := testing.AllocsPerRun(50, func() {
		sync.Reset(children[trial%len(children)])
		trial++
		for sync.Step() {
		}
	})
	if allocs > 0 {
		t.Errorf("sync Reset+trial allocates %.1f objects/op, want 0", allocs)
	}
	async, err := NewAsyncStepper(g, 0, AsyncConfig{Protocol: PushPull}, root.Child(0))
	if err != nil {
		t.Fatal(err)
	}
	for async.Step() {
	}
	allocs = testing.AllocsPerRun(50, func() {
		async.Reset(children[trial%len(children)])
		trial++
		for async.Step() {
		}
	})
	if allocs > 0 {
		t.Errorf("async Reset+trial allocates %.1f objects/op, want 0", allocs)
	}
}

// --- Bitset informed-state vs a bool-slice oracle, every graph family ---

type informTracker struct {
	informed []bool
	count    int
	bad      bool
}

func (o *informTracker) OnInformed(_ float64, v, _ graph.NodeID) {
	if o.informed[v] {
		o.bad = true
		return
	}
	o.informed[v] = true
	o.count++
}

func familyGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := xrand.New(99)
	gnp, err := graph.GNP(150, 0.06, rng)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := graph.RandomRegular(64, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"complete":  mustGraph(graph.Complete(33)),
		"star":      mustGraph(graph.Star(40)),
		"cycle":     mustGraph(graph.Cycle(41)),
		"path":      mustGraph(graph.Path(17)),
		"hypercube": mustGraph(graph.Hypercube(5)),
		"torus":     mustGraph(graph.Grid(5, 7, true)),
		"tree":      mustGraph(graph.CompleteKAryTree(31, 2)),
		"bipartite": mustGraph(graph.CompleteBipartite(6, 9)),
		"gnp":       gnp, // possibly disconnected: exercises reachability
		"regular":   reg,
	}
}

// The engine's bitset-backed informed set must agree, node by node, with
// an independent bool-slice oracle fed only by Observer events, on every
// graph family.
func TestBitsetStateMatchesBoolOracle(t *testing.T) {
	for name, g := range familyGraphs(t) {
		t.Run(name, func(t *testing.T) {
			tracker := &informTracker{informed: make([]bool, g.NumNodes())}
			cfg := SyncConfig{Protocol: PushPull, Observer: tracker}
			s, err := NewSyncStepper(g, 0, cfg, xrand.New(42))
			if err != nil {
				t.Fatal(err)
			}
			for s.Step() {
				// Mid-run: every oracle-informed node must read informed
				// from the bitset, and counts must agree.
				if s.NumInformed() != tracker.count {
					t.Fatalf("round %d: NumInformed=%d oracle=%d", s.Round(), s.NumInformed(), tracker.count)
				}
			}
			if tracker.bad {
				t.Fatal("observer saw a node informed twice")
			}
			res := s.Result()
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				if s.Informed(v) != tracker.informed[v] {
					t.Fatalf("node %d: bitset=%v oracle=%v", v, s.Informed(v), tracker.informed[v])
				}
				if (res.InformedAt[v] >= 0) != tracker.informed[v] {
					t.Fatalf("node %d: InformedAt=%d oracle=%v", v, res.InformedAt[v], tracker.informed[v])
				}
			}
			if res.NumInformed != tracker.count {
				t.Fatalf("NumInformed=%d oracle=%d", res.NumInformed, tracker.count)
			}
		})
	}
}

// And the spreading-time law of the optimized bitset engine must match
// the bool-slice reference oracle on every family (distribution-level:
// the two consume randomness differently).
func TestBitsetEngineLawMatchesOracleAllFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	for name, g := range familyGraphs(t) {
		t.Run(name, func(t *testing.T) {
			ref, opt := syncLawSample(t, g, 0)
			if ks, differ := syncLawsDiffer(ref, opt); differ {
				t.Errorf("%s: bitset engine law differs from oracle (KS=%.3f p=%.5f)", name, ks.Statistic, ks.PValue)
			}
		})
	}
}

// syncLawTrials is the sample size a side of the sync oracle gate.
const syncLawTrials = 200

// syncLawSample draws the two sides of the sync oracle gate on g: the
// rounds of syncLawTrials push-pull runs from node 0 of the reference
// and of the engine, on seed block block (block 0 is the gate's own).
func syncLawSample(t *testing.T, g *graph.Graph, block int) (ref, opt []float64) {
	t.Helper()
	base := uint64(2 * syncLawTrials * block)
	ref, opt = make([]float64, syncLawTrials), make([]float64, syncLawTrials)
	for i := range syncLawTrials {
		r1, err := RunSyncReference(g, 0, SyncConfig{Protocol: PushPull, MaxRounds: 100000}, xrand.New(base+uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := RunSync(g, 0, SyncConfig{Protocol: PushPull, MaxRounds: 100000}, xrand.New(base+uint64(i+syncLawTrials)))
		if err != nil {
			t.Fatal(err)
		}
		ref[i], opt[i] = float64(r1.Rounds), float64(r2.Rounds)
	}
	return ref, opt
}

// syncLawsDiffer is the sync oracle gate: a two-sample KS test at 0.001.
func syncLawsDiffer(ref, opt []float64) (stats.KSResult, bool) {
	ks := stats.KolmogorovSmirnov(ref, opt)
	return ks, ks.PValue < 0.001
}

// The three views remain one law through the fast path (the paper's
// equivalence, Section 2).
func TestAsyncViewsEquivalentThroughFastPath(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	g := mustGraph(graph.Hypercube(5))
	const trials = 300
	times := map[AsyncView][]float64{}
	for _, view := range []AsyncView{GlobalClock, PerNodeClocks, PerEdgeClocks} {
		xs := make([]float64, trials)
		for i := 0; i < trials; i++ {
			r, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull, View: view}, xrand.New(uint64(1000*int(view)+i)))
			if err != nil {
				t.Fatal(err)
			}
			if !r.Complete {
				t.Fatal("incomplete spread on connected graph")
			}
			xs[i] = r.Time
		}
		times[view] = xs
	}
	for _, pair := range [][2]AsyncView{{GlobalClock, PerNodeClocks}, {GlobalClock, PerEdgeClocks}} {
		ks := stats.KolmogorovSmirnov(times[pair[0]], times[pair[1]])
		if ks.PValue < 0.001 {
			t.Errorf("%v vs %v: laws differ (KS=%.3f p=%.5f)", pair[0], pair[1], ks.Statistic, ks.PValue)
		}
	}
}

// Ziggurat change check: async time scale is still correct — mean global
// tick gap must be 1/n.
func TestAsyncTickRate(t *testing.T) {
	g := mustGraph(graph.Complete(40))
	var total float64
	var steps int64
	for i := 0; i < 200; i++ {
		r, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull}, xrand.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		total += r.Time
		steps += r.Steps
	}
	gap := total / float64(steps)
	want := 1.0 / 40
	if math.Abs(gap-want) > 0.15*want {
		t.Fatalf("mean tick gap %.5f, want ~%.5f", gap, want)
	}
}
