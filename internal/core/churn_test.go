package core

import (
	"errors"
	"reflect"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// --- Node churn ---

// TestChurnLeaveMatchesCrash: a leave-only churn schedule is the same
// process as a crash schedule at the same (node, time) pairs — the
// thinning argument is identical — and the engines must agree draw for
// draw.
func TestChurnLeaveMatchesCrash(t *testing.T) {
	g := mustGraph(graph.GNPConnected(40, 0.2, xrand.New(1), 100))
	crashes := []Crash{{Node: 3, Time: 2}, {Node: 17, Time: 1}, {Node: 8, Time: 3.5}}
	churn := make([]ChurnEvent, len(crashes))
	for i, c := range crashes {
		churn[i] = ChurnEvent{Node: c.Node, Time: c.Time, Op: ChurnLeave}
	}
	for seed := uint64(0); seed < 5; seed++ {
		a, err := RunSync(g, 0, SyncConfig{Protocol: PushPull, Crashes: crashes}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunSync(g, 0, SyncConfig{Protocol: PushPull, Churn: churn}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if a.Rounds != b.Rounds || !reflect.DeepEqual(a.InformedAt, b.InformedAt) {
			t.Fatalf("seed %d: sync crash and leave-only churn runs diverged (%d vs %d rounds)",
				seed, a.Rounds, b.Rounds)
		}

		ac, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull, Crashes: crashes}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		bc, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull, Churn: churn}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if ac.Time != bc.Time || !reflect.DeepEqual(ac.InformedAt, bc.InformedAt) {
			t.Fatalf("seed %d: async crash and leave-only churn runs diverged", seed)
		}
	}
}

// TestChurnRejoinWithState: a node that leaves and rejoins without
// dropping state keeps the rumor through the outage, so the run still
// completes.
func TestChurnRejoinWithState(t *testing.T) {
	g := mustGraph(graph.Complete(8))
	churn := []ChurnEvent{
		{Node: 3, Time: 0, Op: ChurnLeave},
		{Node: 3, Time: 6, Op: ChurnJoin},
	}
	res, err := RunSync(g, 0, SyncConfig{Protocol: PushPull, Churn: churn}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("rejoining node never informed: %d informed", res.NumInformed)
	}
	if res.InformedAt[3] < 6 {
		t.Fatalf("node 3 informed at round %d while down until 6", res.InformedAt[3])
	}
}

// TestChurnAmnesiacRejoin: a rejoin with DropState forgets the rumor
// and must be re-informed. Node 1 bridges the path, so the run can only
// complete by informing it again after the amnesiac rejoin.
func TestChurnAmnesiacRejoin(t *testing.T) {
	g := mustGraph(graph.Path(5))
	churn := []ChurnEvent{
		{Node: 1, Time: 2, Op: ChurnLeave},
		{Node: 1, Time: 3, Op: ChurnJoin, DropState: true},
	}
	res, err := RunSync(g, 0, SyncConfig{Protocol: PushPull, Churn: churn}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("amnesiac bridge never re-informed: %d informed", res.NumInformed)
	}
	if res.InformedAt[1] < 3 {
		t.Fatalf("node 1 reports informed at round %d, before its amnesiac rejoin at 3", res.InformedAt[1])
	}
}

// TestChurnStrandedTerminates: a permanent leave that cuts the graph
// strands the rumor; the run must halt cleanly (no budget error, no
// spin) with a partial result.
func TestChurnStrandedTerminates(t *testing.T) {
	g := mustGraph(graph.Path(3))
	churn := []ChurnEvent{{Node: 1, Time: 0, Op: ChurnLeave}}
	res, err := RunSync(g, 0, SyncConfig{Protocol: PushPull, Churn: churn}, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || res.NumInformed > 1 {
		t.Fatalf("rumor crossed a departed node: %d informed", res.NumInformed)
	}
	ares, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull, Churn: churn}, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if ares.Complete || ares.NumInformed > 1 {
		t.Fatalf("async rumor crossed a departed node: %d informed", ares.NumInformed)
	}
}

// TestChurnFutureJoinKeepsRunning: while a rejoin is still scheduled
// the process must not declare itself stranded — it waits out the
// outage and completes after the join.
func TestChurnFutureJoinKeepsRunning(t *testing.T) {
	g := mustGraph(graph.Complete(4))
	var churn []ChurnEvent
	for v := graph.NodeID(1); v < 4; v++ {
		churn = append(churn,
			ChurnEvent{Node: v, Time: 0, Op: ChurnLeave},
			ChurnEvent{Node: v, Time: 10, Op: ChurnJoin})
	}
	res, err := RunSync(g, 0, SyncConfig{Protocol: PushPull, Churn: churn}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("run gave up before the scheduled rejoins: %d informed", res.NumInformed)
	}
	if res.Rounds < 10 {
		t.Fatalf("completed in %d rounds with everyone down until 10", res.Rounds)
	}
	ares, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull, Churn: churn}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !ares.Complete || ares.Time < 10 {
		t.Fatalf("async: complete=%v at %v, want completion after t=10", ares.Complete, ares.Time)
	}
}

// TestChurnValidation: malformed schedules and unsupported engine
// combinations are rejected with ErrBadChurn.
func TestChurnValidation(t *testing.T) {
	g := mustGraph(graph.Complete(8))
	bad := [][]ChurnEvent{
		{{Node: -1, Time: 1, Op: ChurnLeave}},
		{{Node: 8, Time: 1, Op: ChurnLeave}},
		{{Node: 1, Time: -1, Op: ChurnLeave}},
		{{Node: 1, Time: 1, Op: 0}},
	}
	for i, churn := range bad {
		if _, err := RunSync(g, 0, SyncConfig{Protocol: PushPull, Churn: churn}, xrand.New(1)); !errors.Is(err, ErrBadChurn) {
			t.Errorf("bad schedule %d accepted by sync: %v", i, err)
		}
		if _, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull, Churn: churn}, xrand.New(1)); !errors.Is(err, ErrBadChurn) {
			t.Errorf("bad schedule %d accepted by async: %v", i, err)
		}
	}

	ok := []ChurnEvent{{Node: 1, Time: 1, Op: ChurnLeave}}
	if _, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull, View: PerEdgeClocks, Churn: ok}, xrand.New(1)); !errors.Is(err, ErrBadView) {
		t.Errorf("per-edge-clocks churn accepted: %v", err)
	}
	if _, err := RunSyncReference(g, 0, SyncConfig{Protocol: PushPull, Churn: ok}, xrand.New(1)); !errors.Is(err, ErrBadChurn) {
		t.Errorf("reference engine accepted churn: %v", err)
	}
	if _, err := runQuasirandomSync(g, 0, SyncConfig{Protocol: PushPull, Churn: ok}, xrand.New(1)); !errors.Is(err, ErrBadChurn) {
		t.Errorf("quasirandom engine accepted churn: %v", err)
	}
	if _, err := RunPPVariant(g, 0, PPX, SyncConfig{Protocol: PushPull, Churn: ok}, xrand.New(1)); !errors.Is(err, ErrBadChurn) {
		t.Errorf("ppx accepted churn: %v", err)
	}
}

// --- Dynamic topology ---

// TestStaticProviderMatchesStatic: the Topo entry points unwrap a
// *graph.Static provider onto the static fast path, which must
// reproduce the static engines draw for draw.
func TestStaticProviderMatchesStatic(t *testing.T) {
	g := mustGraph(graph.GNPConnected(32, 0.25, xrand.New(7), 100))
	for seed := uint64(0); seed < 5; seed++ {
		want, err := RunSync(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunSyncTopo(graph.NewStatic(g), 0, SyncConfig{Protocol: PushPull}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if got.Rounds != want.Rounds || !reflect.DeepEqual(got.InformedAt, want.InformedAt) {
			t.Fatalf("seed %d: static-provider sync run diverged from static (%d vs %d rounds)",
				seed, got.Rounds, want.Rounds)
		}

		awant, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		agot, err := RunAsyncTopo(graph.NewStatic(g), 0, AsyncConfig{Protocol: PushPull}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if agot.Time != awant.Time || !reflect.DeepEqual(agot.InformedAt, awant.InformedAt) {
			t.Fatalf("seed %d: static-provider async run diverged from static", seed)
		}
	}
}

// TestConstantTopoMatchesStaticLaw: a Resample provider that serves the
// same graph every epoch re-binds state each round, so the draw order
// differs from the static engine — but the process law is identical.
// Check the run is deterministic per seed, always completes, and its
// mean spreading time sits in a tight band around the static mean.
func TestConstantTopoMatchesStaticLaw(t *testing.T) {
	g := mustGraph(graph.GNPConnected(32, 0.25, xrand.New(7), 100))
	constant := func() graph.Provider {
		p, err := graph.NewResample(g, 1, func(uint64) (*graph.Graph, error) { return g, nil })
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	const seeds = 30
	var statSum, dynSum float64
	for seed := uint64(0); seed < seeds; seed++ {
		want, err := RunSync(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunSyncTopo(constant(), 0, SyncConfig{Protocol: PushPull}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Complete {
			t.Fatalf("seed %d: constant-topo run incomplete (%d informed)", seed, got.NumInformed)
		}
		again, err := RunSyncTopo(constant(), 0, SyncConfig{Protocol: PushPull}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if got.Rounds != again.Rounds || !reflect.DeepEqual(got.InformedAt, again.InformedAt) {
			t.Fatalf("seed %d: constant-topo run is not deterministic", seed)
		}
		statSum += float64(want.Rounds)
		dynSum += float64(got.Rounds)
	}
	if ratio := dynSum / statSum; ratio < 0.5 || ratio > 2 {
		t.Errorf("constant-topo/static mean round ratio = %.2f, outside the [0.5, 2] band", ratio)
	}
}

// TestDynamicResampleCrossesEpochs: a disconnected base whose
// re-sampled epochs are connected spreads the rumor across epochs —
// coverage that no single static snapshot allows.
func TestDynamicResampleCrossesEpochs(t *testing.T) {
	// Base: two disjoint 8-cliques (disconnected). Every later epoch:
	// one 16-clique.
	b := graph.NewBuilder(16)
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			b.AddEdge(graph.NodeID(u+8), graph.NodeID(v+8))
		}
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	full := mustGraph(graph.Complete(16))
	topo, err := graph.NewResample(base, 2, func(uint64) (*graph.Graph, error) { return full, nil })
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSyncTopo(topo, 0, SyncConfig{Protocol: PushPull}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("rumor never crossed into the reconnecting epochs: %d informed", res.NumInformed)
	}
	// The second clique is unreachable before the epoch switch at t=2.
	for v := 8; v < 16; v++ {
		if at := res.InformedAt[v]; at >= 0 && at < 3 {
			t.Fatalf("node %d informed at round %d, before any connecting epoch existed", v, at)
		}
	}

	topo.Reset()
	ares, err := RunAsyncTopo(topo, 0, AsyncConfig{Protocol: PushPull}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !ares.Complete {
		t.Fatalf("async rumor never crossed epochs: %d informed", ares.NumInformed)
	}
}

// TestDynamicTopoErrorSurfaces: a provider whose epoch build fails
// surfaces the failure through the run's error (with the partial
// result) instead of silently freezing the topology.
func TestDynamicTopoErrorSurfaces(t *testing.T) {
	base := mustGraph(graph.Path(64))
	topo, err := graph.NewResample(base, 1, func(e uint64) (*graph.Graph, error) {
		return nil, errors.New("generator exploded")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSyncTopo(topo, 0, SyncConfig{Protocol: PushPull}, xrand.New(1)); err == nil {
		t.Fatal("epoch build failure not surfaced")
	}
}

// --- One schedule, two timings ---

// announcements counts, per node, how often the observer heard it become
// informed.
type announcements []int

func (a announcements) OnInformed(_ float64, v, _ graph.NodeID) { a[v]++ }

// scheduleRun is what a finished trial shows of its schedule that does not
// depend on when nodes act.
type scheduleRun struct {
	offline   []graph.NodeID // down when the run ended
	forgotten []graph.NodeID // announced to the observer, InformedAt == -1 at the end
	announced []int          // observer calls per node
	informed  int
	complete  bool
	end       float64 // time the schedule was last advanced to, at least
}

// TestScheduleMeansTheSameUnderBothTimings: sources, a crash/churn schedule
// and a graph sequence are one scenario whether nodes act in rounds or on
// Poisson clocks. Each row is built so that its outcome does not depend on
// the order of contacts (events sit at time 0 or long after the graph is
// covered), runs once under each timing, and must show the same offline
// set, the same forgotten nodes, the same observer announcements, the same
// informed count within the row's completion target, and the same choice
// between stopping short and waiting for a pending join.
func TestScheduleMeansTheSameUnderBothTimings(t *testing.T) {
	path3 := mustGraph(graph.Path(3))
	path5 := mustGraph(graph.Path(5))
	k4 := mustGraph(graph.Complete(4))
	k6 := mustGraph(graph.Complete(6))
	static := func(g *graph.Graph) func() graph.Provider {
		return func() graph.Provider { return graph.NewStatic(g) }
	}
	resample := func(g *graph.Graph) func() graph.Provider {
		return func() graph.Provider {
			p, err := graph.NewResample(g, 1, func(uint64) (*graph.Graph, error) { return g, nil })
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	leave := func(v graph.NodeID, at float64) ChurnEvent { return ChurnEvent{Node: v, Time: at, Op: ChurnLeave} }
	join := func(v graph.NodeID, at float64, drop bool) ChurnEvent {
		return ChurnEvent{Node: v, Time: at, Op: ChurnJoin, DropState: drop}
	}
	for _, tc := range []struct {
		name    string
		topo    func() graph.Provider
		extra   []graph.NodeID // informed at 0 besides node 0
		crashes []Crash
		churn   []ChurnEvent

		offline   []graph.NodeID
		forgotten []graph.NodeID
		announced []int
		target    int     // completion target: informed <= target, == when reached
		reached   bool    // the run informed its whole target
		waitUntil float64 // the run must not end before this time
	}{
		{name: "bridge crashes before it is informed", topo: static(path5),
			crashes: []Crash{{Node: 2, Time: 0}},
			offline: []graph.NodeID{2}, announced: []int{1, 1, 0, 0, 0}, target: 2, reached: true},
		{name: "bridge crashes after it is informed", topo: static(path5), extra: []graph.NodeID{2},
			crashes: []Crash{{Node: 2, Time: 0}},
			offline: []graph.NodeID{2}, announced: []int{1, 1, 1, 0, 0}, target: 3, reached: true},
		{name: "leave and plain rejoin keep the rumor", topo: static(path3), extra: []graph.NodeID{1},
			churn:     []ChurnEvent{leave(1, 0), join(1, 10, false)},
			announced: []int{1, 1, 1}, target: 3, reached: true, waitUntil: 10},
		{name: "amnesiac rejoin is informed again", topo: static(path3), extra: []graph.NodeID{1},
			churn:     []ChurnEvent{leave(1, 0), join(1, 10, true)},
			announced: []int{1, 2, 1}, target: 3, reached: true, waitUntil: 10},
		{name: "amnesiac rejoin beside a crashed informer stays forgotten", topo: static(path3), extra: []graph.NodeID{1},
			crashes: []Crash{{Node: 0, Time: 0}},
			churn:   []ChurnEvent{leave(1, 0), join(1, 5, true)},
			offline: []graph.NodeID{0}, forgotten: []graph.NodeID{1}, announced: []int{1, 1, 0}, target: 1, reached: true, waitUntil: 5},
		{name: "lone informed node leaves, join pending", topo: static(k4),
			churn:     []ChurnEvent{leave(0, 0), join(0, 8, false)},
			announced: []int{1, 1, 1, 1}, target: 4, reached: true, waitUntil: 8},
		{name: "lone informed node leaves, no join", topo: static(k4),
			churn:   []ChurnEvent{leave(0, 0)},
			offline: []graph.NodeID{0}, announced: []int{1, 0, 0, 0}, target: 1, reached: true},
		{name: "lone informed node leaves a resampled graph, no join", topo: resample(k4),
			churn:   []ChurnEvent{leave(0, 0)},
			offline: []graph.NodeID{0}, announced: []int{1, 0, 0, 0}, target: 1, reached: true},
		{name: "lone informed node leaves a resampled graph, join pending", topo: resample(k4),
			churn:     []ChurnEvent{leave(0, 0), join(0, 8, false)},
			announced: []int{1, 1, 1, 1}, target: 4, reached: true, waitUntil: 8},
		{name: "never-informed node leaves a resampled graph for good", topo: resample(k6),
			churn:   []ChurnEvent{leave(5, 0)},
			offline: []graph.NodeID{5}, announced: []int{1, 1, 1, 1, 1, 0}, target: 5, reached: true},
		{name: "never-informed node leaves a resampled graph and returns", topo: resample(k6),
			churn:     []ChurnEvent{leave(5, 0), join(5, 12, false)},
			announced: []int{1, 1, 1, 1, 1, 1}, target: 6, reached: true, waitUntil: 12},
		{name: "crash applies before churn at equal times", topo: static(path3),
			crashes:   []Crash{{Node: 1, Time: 0}},
			churn:     []ChurnEvent{join(1, 0, false)},
			announced: []int{1, 1, 1}, target: 3, reached: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.topo().NumNodes()
			run := func(timing string, trial *Trial, err error, seen announcements) scheduleRun {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", timing, err)
				}
				out, err := trial.Run(xrand.New(7))
				if err != nil {
					t.Fatalf("%s: %v", timing, err)
				}
				r := scheduleRun{announced: seen, complete: out.Complete()}
				var known func(v graph.NodeID) bool
				var num int
				if s := out.Sync; s != nil {
					// The round that found the run over had already applied
					// the schedule up to its own number.
					r.end, num = float64(s.Rounds+1), s.NumInformed
					known = func(v graph.NodeID) bool { return s.InformedAt[v] >= 0 }
				} else {
					r.end, num = out.Async.Time, out.Async.NumInformed
					known = func(v graph.NodeID) bool { return out.Async.InformedAt[v] >= 0 }
				}
				for v := graph.NodeID(0); int(v) < n; v++ {
					if !aliveIn(scheduleOf(trial), v) {
						r.offline = append(r.offline, v)
					}
					if known(v) {
						r.informed++
					} else if seen[v] > 0 {
						r.forgotten = append(r.forgotten, v)
					}
				}
				if r.informed != num {
					t.Errorf("%s: NumInformed = %d, InformedAt lists %d", timing, num, r.informed)
				}
				return r
			}
			sseen, aseen := make(announcements, n), make(announcements, n)
			strial, err := NewTrial(tc.topo(), 0, SyncConfig{Protocol: PushPull, ExtraSources: tc.extra,
				Crashes: tc.crashes, Churn: tc.churn, Observer: sseen}, 0, false)
			s := run("sync", strial, err, sseen)
			atrial, err := NewTrial(tc.topo(), 0, AsyncConfig{Protocol: PushPull, ExtraSources: tc.extra,
				Crashes: tc.crashes, Churn: tc.churn, Observer: aseen}, 0, false)
			a := run("async", atrial, err, aseen)
			for _, r := range []struct {
				timing string
				got    scheduleRun
			}{{"sync", s}, {"async", a}} {
				got := r.got
				if !reflect.DeepEqual(got.offline, tc.offline) {
					t.Errorf("%s: offline at the end = %v, want %v", r.timing, got.offline, tc.offline)
				}
				if !reflect.DeepEqual(got.forgotten, tc.forgotten) {
					t.Errorf("%s: forgotten at the end = %v, want %v", r.timing, got.forgotten, tc.forgotten)
				}
				if !reflect.DeepEqual([]int(got.announced), tc.announced) {
					t.Errorf("%s: observer announcements = %v, want %v", r.timing, got.announced, tc.announced)
				}
				if got.informed > tc.target || (got.informed == tc.target) != tc.reached {
					t.Errorf("%s: %d informed, target %d (reached: want %v)", r.timing, got.informed, tc.target, tc.reached)
				}
				if got.complete != (tc.reached && tc.target == n) {
					t.Errorf("%s: Complete = %v with %d of %d informed", r.timing, got.complete, got.informed, n)
				}
				if got.end < tc.waitUntil {
					t.Errorf("%s: run ended at %v, before the join pending at %v", r.timing, got.end, tc.waitUntil)
				}
			}
		})
	}
}

// TestConstructionErrorPrecedence: when two fields of a scenario are bad
// at once, which error the constructor reports is part of its behaviour
// (callers match on it and the service prints it). The order is:
// CheckScenario's options (protocol, probability, view and its
// combinations, crash and churn times and ops) before anything on the
// graph; then graph, source; extra sources; crash nodes; churn nodes.
func TestConstructionErrorPrecedence(t *testing.T) {
	g := mustGraph(graph.Complete(8))
	empty := graph.NewBuilder(0).MustBuild()
	dynamic, err := graph.NewResample(g, 1, func(uint64) (*graph.Graph, error) { return g, nil })
	if err != nil {
		t.Fatal(err)
	}
	okChurn := []ChurnEvent{{Node: 1, Time: 1, Op: ChurnLeave}}
	for _, tc := range []struct {
		name  string
		topo  graph.Provider
		src   graph.NodeID
		sync  *SyncConfig // nil: the row is about a view
		async AsyncConfig
		want  string
	}{
		{"empty graph + bad protocol", graph.NewStatic(empty), 0,
			&SyncConfig{Protocol: 9}, AsyncConfig{Protocol: 9},
			"core: invalid protocol: 9"},
		{"bad protocol + out-of-range source", graph.NewStatic(g), 8,
			&SyncConfig{Protocol: 9}, AsyncConfig{Protocol: 9},
			"core: invalid protocol: 9"},
		{"out-of-range source + bad probability", graph.NewStatic(g), 8,
			&SyncConfig{Protocol: Push, TransmitProb: 2}, AsyncConfig{Protocol: Push, TransmitProb: 2},
			"core: transmit probability outside (0, 1]: 2"},
		{"bad view + out-of-range source", graph.NewStatic(g), -1,
			nil, AsyncConfig{Protocol: Push, View: 7},
			"core: invalid async view: 7"},
		{"bad view + bad probability", graph.NewStatic(g), 0,
			nil, AsyncConfig{Protocol: Push, View: 7, TransmitProb: -0.5},
			"core: transmit probability outside (0, 1]: -0.5"},
		{"bad view + out-of-range extra source", graph.NewStatic(g), 0,
			nil, AsyncConfig{Protocol: Push, View: 7, ExtraSources: []graph.NodeID{8}},
			"core: invalid async view: 7"},
		{"out-of-range extra source + bad crash node", graph.NewStatic(g), 0,
			&SyncConfig{Protocol: Push, ExtraSources: []graph.NodeID{8}, Crashes: []Crash{{Node: 9, Time: 1}}},
			AsyncConfig{Protocol: Push, ExtraSources: []graph.NodeID{8}, Crashes: []Crash{{Node: 9, Time: 1}}},
			"core: source out of range: 8 (n=8)"},
		{"bad crash time + bad churn op", graph.NewStatic(g), 0,
			&SyncConfig{Protocol: Push, Crashes: []Crash{{Node: 1, Time: -1}}, Churn: []ChurnEvent{{Node: 1, Time: 1}}},
			AsyncConfig{Protocol: Push, Crashes: []Crash{{Node: 1, Time: -1}}, Churn: []ChurnEvent{{Node: 1, Time: 1}}},
			"core: invalid crash schedule: time -1"},
		{"bad crash node + bad churn node", graph.NewStatic(g), 0,
			&SyncConfig{Protocol: Push, Crashes: []Crash{{Node: 9, Time: 1}}, Churn: []ChurnEvent{{Node: -2, Time: 1, Op: ChurnLeave}}},
			AsyncConfig{Protocol: Push, Crashes: []Crash{{Node: 9, Time: 1}}, Churn: []ChurnEvent{{Node: -2, Time: 1, Op: ChurnLeave}}},
			"core: invalid crash schedule: node 9 out of range"},
		{"per-edge + churn + dynamic", dynamic, 0,
			nil, AsyncConfig{Protocol: Push, View: PerEdgeClocks, Churn: okChurn},
			"core: invalid async view: churn schedules are not supported in the per-edge-clocks view"},
		{"per-edge + dynamic + bad churn op", dynamic, 0,
			nil, AsyncConfig{Protocol: Push, View: PerEdgeClocks, Churn: []ChurnEvent{{Node: 1, Time: 1}}},
			"core: invalid async view: churn schedules are not supported in the per-edge-clocks view"},
		{"per-edge + dynamic + bad crash node", dynamic, 0,
			nil, AsyncConfig{Protocol: Push, View: PerEdgeClocks, Crashes: []Crash{{Node: 9, Time: 1}}},
			"core: invalid async view: per-edge-clocks is not supported on a dynamic topology"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.sync != nil {
				if _, err := NewTrial(tc.topo, tc.src, *tc.sync, 0, false); err == nil || err.Error() != tc.want {
					t.Errorf("sync: %v, want %s", err, tc.want)
				}
			}
			if _, err := NewTrial(tc.topo, tc.src, tc.async, 0, false); err == nil || err.Error() != tc.want {
				t.Errorf("async: %v, want %s", err, tc.want)
			}
		})
	}
}
