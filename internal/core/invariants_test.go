package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// Cross-cutting invariants exercised across protocols, views, and graph
// shapes — the "no matter what, these hold" layer of the test suite.

func TestQuickSyncInvariantsRandomGraphs(t *testing.T) {
	f := func(seed uint64, rawN uint8, rawProto uint8) bool {
		n := int(rawN%60) + 5
		proto := Protocol(rawProto%3) + 1
		rng := xrand.New(seed)
		g, err := graph.GNPConnected(n, 0.3, rng, 200)
		if err != nil {
			return true // too unlucky to build; skip
		}
		res, err := RunSync(g, 0, SyncConfig{Protocol: proto}, rng)
		if err != nil {
			return false
		}
		if !res.Complete {
			return false
		}
		// Informing times respect BFS distances.
		dist := graph.BFS(g, 0)
		for v := 0; v < n; v++ {
			if res.InformedAt[v] < dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAsyncCausality(t *testing.T) {
	f := func(seed uint64, rawN uint8, rawView uint8) bool {
		n := int(rawN%40) + 5
		view := AsyncView(rawView%3) + 1
		rng := xrand.New(seed)
		g, err := graph.GNPConnected(n, 0.35, rng, 200)
		if err != nil {
			return true
		}
		res, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull, View: view}, rng)
		if err != nil || !res.Complete {
			return false
		}
		for v := 0; v < n; v++ {
			p := res.Parent[v]
			if p < 0 {
				continue
			}
			if res.InformedAt[p] >= res.InformedAt[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// countingObserver tallies OnInformed calls.
type countingObserver struct {
	events int
	lastT  float64
	ooo    bool // out-of-order event times seen
}

func (c *countingObserver) OnInformed(t float64, v, from graph.NodeID) {
	c.events++
	if t < c.lastT {
		c.ooo = true
	}
	c.lastT = t
}

func TestObserverSeesEveryInformingSync(t *testing.T) {
	g := mustGraph(graph.Hypercube(6))
	obs := &countingObserver{}
	res, err := RunSync(g, 0, SyncConfig{Protocol: PushPull, Observer: obs}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if obs.events != res.NumInformed {
		t.Fatalf("observer saw %d events for %d informings", obs.events, res.NumInformed)
	}
	if obs.ooo {
		t.Fatal("observer event times not monotone")
	}
}

func TestObserverSeesEveryInformingAsync(t *testing.T) {
	g := mustGraph(graph.Hypercube(6))
	for _, view := range []AsyncView{GlobalClock, PerNodeClocks, PerEdgeClocks} {
		obs := &countingObserver{}
		res, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull, View: view, Observer: obs}, xrand.New(2))
		if err != nil {
			t.Fatal(err)
		}
		if obs.events != res.NumInformed {
			t.Fatalf("%v: observer saw %d events for %d informings", view, obs.events, res.NumInformed)
		}
		if obs.ooo {
			t.Fatalf("%v: event times not monotone", view)
		}
	}
}

func TestTransmitProbNearZeroStillTerminates(t *testing.T) {
	g := mustGraph(graph.Complete(16))
	res, err := RunSync(g, 0, SyncConfig{Protocol: PushPull, TransmitProb: 1e-3, MaxRounds: 500}, xrand.New(3))
	// Either completes (unlikely) or hits the budget; both must return a
	// structurally valid partial result.
	if err == nil {
		checkSyncResult(t, g, 0, res)
	} else if res == nil {
		t.Fatal("budget error without partial result")
	}
}

func TestPullOnlyFromLeafOnStar(t *testing.T) {
	// Pull-only with a leaf source: the center can pull from the leaf
	// (center contacts uniform leaf: probability 1/(n-1) per round), and
	// until then nothing else can happen. Expect ~n rounds for the
	// center, then 1 more round for all other leaves.
	g := mustGraph(graph.Star(32))
	var sum float64
	const trials = 40
	for seed := uint64(0); seed < trials; seed++ {
		res, err := RunSync(g, 1, SyncConfig{Protocol: Pull}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatal("pull-only star incomplete")
		}
		sum += float64(res.Rounds)
	}
	mean := sum / trials
	if mean < 10 || mean > 100 {
		t.Fatalf("pull-only star from leaf: mean %v rounds, want ~31", mean)
	}
}

func TestAsyncTimeMatchesLastInforming(t *testing.T) {
	g := mustGraph(graph.Complete(32))
	res, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull}, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	maxAt := 0.0
	for _, at := range res.InformedAt {
		if at > maxAt {
			maxAt = at
		}
	}
	if math.Abs(res.Time-maxAt) > 1e-12 {
		t.Fatalf("Time %v != last informing %v", res.Time, maxAt)
	}
}

func TestSyncRoundsMatchesLastInforming(t *testing.T) {
	g := mustGraph(graph.Hypercube(5))
	res, err := RunSync(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	var maxAt int32
	for _, at := range res.InformedAt {
		if at > maxAt {
			maxAt = at
		}
	}
	if int(maxAt) != res.Rounds {
		t.Fatalf("Rounds %d != last informing round %d", res.Rounds, maxAt)
	}
}

func TestTwoNodeAllProtocolViews(t *testing.T) {
	g := mustGraph(graph.Path(2))
	for _, p := range []Protocol{Push, Pull, PushPull} {
		res, err := RunSync(g, 0, SyncConfig{Protocol: p}, xrand.New(uint64(p)))
		if err != nil || !res.Complete || res.Rounds != 1 {
			t.Fatalf("sync %v on K_2: rounds=%d err=%v", p, res.Rounds, err)
		}
		for _, view := range []AsyncView{GlobalClock, PerNodeClocks, PerEdgeClocks} {
			ares, err := RunAsync(g, 0, AsyncConfig{Protocol: p, View: view}, xrand.New(uint64(p)*7+uint64(view)))
			if err != nil || !ares.Complete {
				t.Fatalf("async %v/%v on K_2: err=%v", p, view, err)
			}
		}
	}
}

// The paper's remark on regular graphs: push-a crosses each edge at half
// the push-pull rate, so E[T(push-a)] ≈ 2·E[T(pp-a)] exactly — verify
// the factor on the CYCLE whose long spreading time gives tight
// concentration.
func TestAsyncPushExactlyTwiceOnCycleMeans(t *testing.T) {
	g := mustGraph(graph.Cycle(128))
	const trials = 60
	var push, pp float64
	for seed := uint64(0); seed < trials; seed++ {
		a, err := RunAsync(g, 0, AsyncConfig{Protocol: Push}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull}, xrand.New(seed+5000))
		if err != nil {
			t.Fatal(err)
		}
		push += a.Time
		pp += b.Time
	}
	ratio := push / pp
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("cycle push/pp mean ratio = %v, want ~2", ratio)
	}
}

// --- Who maintains the uninformed boundary ---

// TestUntrackedStateFailsLoudly: a reader reached on a state that does
// not maintain what it reads — the boundary on an untracked state, the
// informed-neighbor counts on one that never called keepCounts — panics
// with the reader's name; it must never answer from the empty lists.
func TestUntrackedStateFailsLoudly(t *testing.T) {
	g := mustGraph(graph.Cycle(8))
	const (
		noBoundary = " on a spread state that does not track its boundary"
		noCounts   = " on a spread state that does not count informed neighbors"
	)
	counted := func() *spreadState {
		st := newSpreadState(g, []graph.NodeID{0}, true)
		st.keepCounts()
		return st
	}
	// stepper returns a ppx stepper over st.
	stepper := func(st *spreadState) *SyncStepper {
		s, err := NewSyncStepper(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		s.st, s.variant = st, PPX
		return s
	}
	for _, tc := range []struct {
		name, missing string
		good, bad     func() *spreadState
		read          func(st *spreadState)
	}{
		{"progressPossible", noBoundary, plainState(g, true), plainState(g, false), func(st *spreadState) { progressPossible(st, nil) }},
		{"uninform", noBoundary, plainState(g, true), plainState(g, false), func(st *spreadState) { st.uninform(0) }},
		{"compactBoundary", noBoundary, plainState(g, true), plainState(g, false), func(st *spreadState) { st.compactBoundary() }},
		{"keepCounts", noBoundary, plainState(g, true), plainState(g, false), func(st *spreadState) { st.keepCounts() }},
		{"randomInformedNeighbor", noCounts, counted, plainState(g, true), func(st *spreadState) { st.randomInformedNeighbor(1, xrand.New(1)) }},
		{"variantRound", noCounts, counted, plainState(g, true), func(st *spreadState) { stepper(st).Step() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.read(tc.good()) // fine on a state that maintains it
			defer func() {
				msg, _ := recover().(string)
				if want := "core: " + tc.name + tc.missing; msg != want {
					t.Fatalf("recovered %q, want %q", msg, want)
				}
			}()
			tc.read(tc.bad())
		})
	}
}

// scheduleOf returns the trial's crash/churn tracker, nil with no schedule.
func scheduleOf(tr *Trial) *availTracker {
	if tr.sync != nil {
		return tr.sync.avail
	}
	return tr.async.avail
}

// plainState returns a constructor of a count-free state on g with source 0.
func plainState(g *graph.Graph, tracked bool) func() *spreadState {
	return func() *spreadState { return newSpreadState(g, []graph.NodeID{0}, tracked) }
}

// TestAsyncBoundaryTracking: an asynchronous run maintains the boundary
// exactly when it has a reader for it, the crash/churn schedule.
func TestAsyncBoundaryTracking(t *testing.T) {
	cube := mustGraph(graph.Hypercube(5))
	ring := mustGraph(graph.Cycle(32))
	run := func(t *testing.T, topo graph.Provider, cfg AsyncConfig) *AsyncStepper {
		t.Helper()
		trial, err := NewTrial(topo, 0, cfg, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 2; i++ { // the second run goes through Reset
			if _, err := trial.Run(xrand.New(5 + i)); err != nil {
				t.Fatal(err)
			}
		}
		return trial.async
	}
	t.Run("no schedule: never grows", func(t *testing.T) {
		s := run(t, graph.NewStatic(cube), AsyncConfig{Protocol: PushPull})
		st := s.st
		if st.tracked || st.infNbrs != nil || cap(st.boundary) != 0 || st.num != 32 {
			t.Fatalf("tracked=%v infNbrs=%d boundary cap=%d informed=%d", st.tracked, len(st.infNbrs), cap(st.boundary), st.num)
		}
	})
	t.Run("crash: tracks and halts", func(t *testing.T) {
		// The path's bridge node crashes before the rumor can cross it.
		path := mustGraph(graph.Path(6))
		s := run(t, graph.NewStatic(path), AsyncConfig{Protocol: PushPull, Crashes: []Crash{{Node: 2, Time: 0}}})
		st := s.st
		st.compactBoundary()
		if !st.tracked || !s.halted || st.num != 2 || len(st.boundary) != 1 || st.boundary[0] != 2 || !st.inBoundary.get(2) || st.infNbrs != nil {
			t.Fatalf("tracked=%v halted=%v informed=%d boundary=%v infNbrs=%d", st.tracked, s.halted, st.num, st.boundary, len(st.infNbrs))
		}
	})
	t.Run("dynamic: rebind scans nothing", func(t *testing.T) {
		p, err := graph.NewResample(cube, 0.5, func(epoch uint64) (*graph.Graph, error) {
			if epoch%2 == 1 {
				return ring, nil
			}
			return cube, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		s := run(t, p, AsyncConfig{Protocol: PushPull})
		st := s.st
		if s.t < 0.5 {
			t.Fatalf("run ended at %v, inside the first epoch", s.t)
		}
		if st.g != s.g || st.tracked || st.infNbrs != nil || cap(st.boundary) != 0 || st.num != 32 {
			t.Fatalf("rebound=%v tracked=%v infNbrs=%d boundary cap=%d informed=%d",
				st.g == s.g, st.tracked, len(st.infNbrs), cap(st.boundary), st.num)
		}
	})
}

// TestReachableFromUsesRememberedConnectivity: reachability is unchanged
// on a connected and on a two-component graph, and once the graph is
// known connected the answer costs no search.
func TestReachableFromUsesRememberedConnectivity(t *testing.T) {
	ring := mustGraph(graph.Cycle(64))
	two := mustGraph(graph.NewBuilder(7).AddEdge(0, 1).AddEdge(1, 2).AddEdge(3, 4).AddEdge(4, 5).AddEdge(5, 6).Build())
	for _, tc := range []struct {
		g       *graph.Graph
		sources []graph.NodeID
		want    int
	}{
		{ring, []graph.NodeID{9}, 64},
		{two, []graph.NodeID{0}, 3},
		{two, []graph.NodeID{4}, 4},
		{two, []graph.NodeID{2, 6}, 7},
	} {
		for call := 0; call < 2; call++ {
			if got := reachableFrom(tc.g, tc.sources); got != tc.want {
				t.Fatalf("%v from %v, call %d: reachable = %d, want %d", tc.g, tc.sources, call, got, tc.want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { reachableFrom(ring, []graph.NodeID{9}) }); allocs != 0 {
		t.Fatalf("reachableFrom on a graph known connected allocated %v times: it searched", allocs)
	}
}

// checkUpkeep recounts by brute force everything a tracked state derives
// from adjacency: (a) outside is the number of nodes neither informed nor
// flagged, (b) every uninformed node with an informed neighbor is flagged,
// and flagged means listed exactly once, (c) the counts, when kept, are
// the informed neighbors.
func checkUpkeep(t *testing.T, st *spreadState, when string) {
	t.Helper()
	n := st.g.NumNodes()
	listed := make([]int, n)
	for _, v := range st.boundary {
		listed[v]++
	}
	outside := 0
	for v := graph.NodeID(0); int(v) < n; v++ {
		informed, flagged := st.informed.get(v), st.inBoundary.get(v)
		var k int32
		for _, w := range st.g.Neighbors(v) {
			if st.informed.get(w) {
				k++
			}
		}
		if listed[v] > 1 || flagged != (listed[v] == 1) {
			t.Fatalf("%s: node %d flagged=%v but listed %d times", when, v, flagged, listed[v])
		}
		if !informed && !flagged {
			outside++
			if k > 0 {
				t.Fatalf("%s: uninformed node %d has %d informed neighbors and is not on the boundary", when, v, k)
			}
		}
		if st.infNbrs != nil && st.infNbrs[v] != k {
			t.Fatalf("%s: infNbrs[%d] = %d, recount %d", when, v, st.infNbrs[v], k)
		}
	}
	if outside != st.outside {
		t.Fatalf("%s: outside = %d, recount %d", when, st.outside, outside)
	}
}

// upkeepGraphs draws the small graphs the upkeep properties run on.
func upkeepGraphs(t *testing.T, rng *xrand.RNG) []*graph.Graph {
	t.Helper()
	n := 6 + rng.Intn(19)
	out := []*graph.Graph{
		mustGraph(graph.GNP(n, 0.08, rng)), // almost surely disconnected
		mustGraph(graph.GNP(n, 0.6, rng)),  // every node flagged within a round or two
		mustGraph(graph.Path(n)),
		mustGraph(graph.Star(n)),
		mustGraph(graph.RandomRegular(n+n%2, 3, rng)),
	}
	if g, err := graph.GNPConnected(n, 0.3, rng, 200); err == nil {
		out = append(out, g)
	}
	return out
}

// TestBoundaryUpkeepProperty: after every round or tick of every engine
// that tracks a boundary — each round body and protocol, under no
// schedule, crashes, churn with amnesiac rejoins, and a changing
// topology — the state's derived fields equal a brute-force recount.
func TestBoundaryUpkeepProperty(t *testing.T) {
	rng := xrand.New(18)
	for iter := 0; iter < 12; iter++ {
		for _, g := range upkeepGraphs(t, rng) {
			n := g.NumNodes()
			node := func() graph.NodeID { return graph.NodeID(rng.Intn(n)) }
			src := node()
			crashes := []Crash{{Node: node(), Time: 1}, {Node: node(), Time: 2.5}}
			churn := []ChurnEvent{
				{Node: src, Time: 2, Op: ChurnLeave},
				{Node: src, Time: 3, Op: ChurnJoin, DropState: true},
				{Node: node(), Time: 1, Op: ChurnLeave},
				{Node: node(), Time: 2, Op: ChurnLeave},
				{Node: node(), Time: 3, Op: ChurnLeave},
			}
			for _, ev := range churn[2:4] {
				churn = append(churn, ChurnEvent{Node: ev.Node, Time: ev.Time + 2.5, Op: ChurnJoin, DropState: true})
			}
			static := func() graph.Provider { return graph.NewStatic(g) }
			dynamic := func() graph.Provider {
				p, err := graph.NewPerturb(g, 1, 0.4, rng.Uint64())
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			type scenario struct {
				name    string
				topo    graph.Provider
				crashes []Crash
				churn   []ChurnEvent
			}
			scenarios := []scenario{
				{"none", static(), nil, nil},
				{"crash", static(), crashes, nil},
				{"churn", static(), nil, churn},
				{"dynamic", dynamic(), nil, nil},
				{"dynamic+churn", dynamic(), crashes[:1], churn},
			}
			var trials []*Trial
			var names []string
			add := func(name string, trial *Trial, err error) {
				if err != nil {
					t.Fatalf("%v %s: %v", g, name, err)
				}
				trials, names = append(trials, trial), append(names, name)
			}
			for _, sc := range scenarios {
				for _, p := range []Protocol{Push, Pull, PushPull} {
					scfg := SyncConfig{Protocol: p, TransmitProb: 0.8, Crashes: sc.crashes, Churn: sc.churn}
					trial, err := NewTrial(sc.topo, src, scfg, 0, false)
					add("sync/"+sc.name+"/"+p.String(), trial, err)
					acfg := AsyncConfig{Protocol: p, Crashes: sc.crashes, Churn: sc.churn}
					trial, err = NewTrial(sc.topo, src, acfg, 0, false)
					add("async/"+sc.name+"/"+p.String(), trial, err)
				}
			}
			for _, variant := range []PPVariant{PPX, PPY} {
				trial, err := NewTrial(static(), src, SyncConfig{}, variant, false)
				add(variant.String(), trial, err)
			}
			trial, err := NewTrial(static(), src, SyncConfig{Protocol: PushPull}, 0, true)
			add("quasirandom", trial, err)
			for i, trial := range trials {
				for run := 0; run < 2; run++ { // the second run goes through reset
					when := func(step int) string { return fmt.Sprintf("%v src %d %s run %d step %d", g, src, names[i], run, step) }
					if s := trial.sync; s != nil {
						s.Reset(rng.Child(uint64(run)))
						checkUpkeep(t, s.st, when(0))
						for step := 1; step <= 60 && s.Step(); step++ {
							checkUpkeep(t, s.st, when(step))
						}
						continue
					}
					s := trial.async
					s.Reset(rng.Child(uint64(run)))
					if !s.st.tracked {
						continue // nothing derived from adjacency to check
					}
					checkUpkeep(t, s.st, when(0))
					for step := 1; step <= 40*n && s.Step(); step++ {
						checkUpkeep(t, s.st, when(step))
					}
				}
			}
		}
	}
}

// TestCountsSurviveUninformAndRebind: no engine combines ppx/ppy with
// churn or a changing topology, but a state that keeps counts keeps them
// right through both, and through the walk markInformed skips.
func TestCountsSurviveUninformAndRebind(t *testing.T) {
	rng := xrand.New(19)
	for iter := 0; iter < 40; iter++ {
		n := 6 + rng.Intn(19)
		graphs := []*graph.Graph{mustGraph(graph.GNP(n, 0.08, rng)), mustGraph(graph.GNP(n, 0.6, rng))}
		g := graphs[rng.Intn(2)]
		st := newSpreadState(g, []graph.NodeID{graph.NodeID(rng.Intn(n))}, true)
		if iter%2 == 0 {
			st.keepCounts()
		}
		checkUpkeep(t, st, "start")
		for op := 0; op < 6*n; op++ {
			v := graph.NodeID(rng.Intn(n))
			var when string
			switch k := rng.Intn(10); {
			case k < 6:
				st.markInformed(v, -1)
				when = fmt.Sprintf("markInformed(%d)", v)
			case k < 8:
				st.uninform(v)
				when = fmt.Sprintf("uninform(%d)", v)
			case k < 9:
				st.compactBoundary()
				when = "compactBoundary"
			default:
				g = graphs[rng.Intn(2)]
				st.rebind(g)
				when = "rebind"
			}
			checkUpkeep(t, st, fmt.Sprintf("iter %d op %d %s on %v", iter, op, when, g))
		}
	}
}
