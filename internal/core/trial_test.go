package core

import (
	"errors"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// trialScenario is one compiled scenario and the engine it must compile
// to. The asynchronous static-topology rows also carry their graph and
// configuration, so the reference oracle can run the same scenario.
type trialScenario struct {
	engine string
	build  func() (*Trial, error)
	g      *graph.Graph
	async  AsyncConfig
}

// trialScenarios is one scenario per engine behind the trial contract
// (and per round body / schedule shape within an engine).
func trialScenarios(t *testing.T) map[string]trialScenario {
	t.Helper()
	g := mustGraph(graph.Hypercube(5))
	static := graph.NewStatic(g)
	star := mustGraph(graph.Star(33))
	// A topology that alternates between the hypercube and a cycle, so
	// reuse must also rewind the provider.
	cycle := mustGraph(graph.Cycle(32))
	dynamic := func() graph.Provider {
		p, err := graph.NewResample(g, 2, func(epoch uint64) (*graph.Graph, error) {
			if epoch%2 == 1 {
				return cycle, nil
			}
			return g, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	crashes := []Crash{{Node: 3, Time: 2}, {Node: 11, Time: 4}, {Node: 30, Time: 1}}
	churn := []ChurnEvent{
		{Node: 3, Time: 1, Op: ChurnLeave},
		{Node: 3, Time: 4, Op: ChurnJoin, DropState: true},
		{Node: 7, Time: 2, Op: ChurnLeave},
		{Node: 7, Time: 5, Op: ChurnJoin},
		{Node: 9, Time: 3, Op: ChurnLeave},
	}
	syncOn := func(topo func() graph.Provider, cfg SyncConfig, v PPVariant, qr bool) trialScenario {
		return trialScenario{engine: "sync", build: func() (*Trial, error) { return NewTrial(topo(), 0, cfg, v, qr) }}
	}
	asyncOn := func(g *graph.Graph, cfg AsyncConfig) trialScenario {
		return trialScenario{engine: "thinning", g: g, async: cfg,
			build: func() (*Trial, error) { return NewTrial(graph.NewStatic(g), 0, cfg, 0, false) }}
	}
	fixed := func(p graph.Provider) func() graph.Provider { return func() graph.Provider { return p } }
	return map[string]trialScenario{
		"sync push-pull":    syncOn(fixed(static), SyncConfig{Protocol: PushPull}, 0, false),
		"sync lossy pull":   syncOn(fixed(static), SyncConfig{Protocol: Pull, TransmitProb: 0.6}, 0, false),
		"sync multi-source": syncOn(fixed(static), SyncConfig{Protocol: Push, ExtraSources: []graph.NodeID{7, 21}}, 0, false),
		"sync crashes":      syncOn(fixed(static), SyncConfig{Protocol: PushPull, Crashes: crashes}, 0, false),
		"sync churn":        syncOn(fixed(static), SyncConfig{Protocol: PushPull, Churn: churn}, 0, false),
		"sync dynamic":      syncOn(dynamic, SyncConfig{Protocol: PushPull, Churn: churn[:2]}, 0, false),
		"ppx":               syncOn(fixed(static), SyncConfig{}, PPX, false),
		"ppy lossy":         syncOn(fixed(static), SyncConfig{Protocol: PushPull, TransmitProb: 0.7}, PPY, false),
		"quasirandom":       syncOn(fixed(static), SyncConfig{Protocol: PushPull}, 0, true),
		"quasirandom lossy push multi-source": syncOn(fixed(static),
			SyncConfig{Protocol: Push, TransmitProb: 0.8, ExtraSources: []graph.NodeID{17}}, 0, true),

		"async global":           asyncOn(g, AsyncConfig{Protocol: PushPull}),
		"async per-node":         asyncOn(g, AsyncConfig{Protocol: Pull, View: PerNodeClocks, TransmitProb: 0.5}),
		"async per-edge":         asyncOn(star, AsyncConfig{Protocol: Push, View: PerEdgeClocks}),
		"async crash global":     asyncOn(g, AsyncConfig{Protocol: PushPull, Crashes: crashes}),
		"async leave-only churn": asyncOn(g, AsyncConfig{Protocol: PushPull, View: PerNodeClocks, Churn: churn[4:]}),
		"async crashes + churn":  asyncOn(g, AsyncConfig{Protocol: PushPull, View: PerNodeClocks, Crashes: crashes, Churn: churn}),
		"async dynamic crashes": {engine: "thinning", build: func() (*Trial, error) {
			return NewTrial(dynamic(), 0, AsyncConfig{Protocol: PushPull, View: PerNodeClocks, Crashes: crashes}, 0, false)
		}},
		"async crash per-node": asyncOn(g, AsyncConfig{Protocol: PushPull, View: PerNodeClocks, Crashes: crashes}),
		"async crash per-edge": asyncOn(star, AsyncConfig{Protocol: PushPull, View: PerEdgeClocks, Crashes: crashes[:1], TransmitProb: 0.9}),
	}
}

func (t *Trial) engineName() string {
	if t.sync != nil {
		return "sync"
	}
	return "thinning"
}

func equalOutcome(a, b Outcome) bool {
	if (a.Sync == nil) != (b.Sync == nil) {
		return false
	}
	if a.Sync != nil {
		return equalSync(a.Sync, b.Sync)
	}
	return equalAsync(a.Async, b.Async)
}

// TestTrialReuseEqualsFresh: Run on one reused trial is bit-identical to
// a freshly compiled trial driven by the same RNG stream — for every
// scenario shape, including every crash and churn schedule and the
// ppx/ppy and quasirandom round bodies — and every scenario compiles to
// the engine of its timing.
func TestTrialReuseEqualsFresh(t *testing.T) {
	const trials = 6
	for name, sc := range trialScenarios(t) {
		t.Run(name, func(t *testing.T) {
			reused, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			if got := reused.engineName(); got != sc.engine {
				t.Fatalf("compiled to the %s engine, want %s", got, sc.engine)
			}
			root := xrand.New(0xfeed)
			for i := uint64(0); i < trials; i++ {
				got, err := reused.Run(root.Child(i))
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := sc.build()
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Run(root.Child(i))
				if err != nil {
					t.Fatal(err)
				}
				if !equalOutcome(got, want) {
					t.Fatalf("run %d: reused trial diverged from fresh (time %v vs %v, work %d vs %d)",
						i, got.Time(), want.Time(), got.Work(), want.Work())
				}
				if got.Time() <= 0 || got.Work() <= 0 {
					t.Fatalf("run %d: degenerate outcome (time %v, work %d)", i, got.Time(), got.Work())
				}
			}
		})
	}
}

// TestStaticProviderIsTheStaticScenario: a graph and its Static provider
// are one scenario, so RunAsync and RunAsyncTopo agree draw for draw.
func TestStaticProviderIsTheStaticScenario(t *testing.T) {
	g := mustGraph(graph.Hypercube(5))
	cfg := AsyncConfig{Protocol: PushPull, View: PerNodeClocks, Crashes: []Crash{{Node: 3, Time: 2}}}
	want, err := RunAsync(g, 0, cfg, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunAsyncTopo(graph.NewStatic(g), 0, cfg, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if !equalAsync(got, want) {
		t.Error("RunAsyncTopo over a Static provider disagrees with RunAsync")
	}
}

// TestTrialBudget: every engine reports budget exhaustion as ErrBudget
// alongside the partial outcome, and the trial stays reusable.
func TestTrialBudget(t *testing.T) {
	g := graph.NewStatic(mustGraph(graph.Cycle(64)))
	crash := []Crash{{Node: 40, Time: 1e9}}
	// The heap-node and heap-edge rows are the crash-only per-node and
	// per-edge scenarios that once had engines of their own; the row
	// names are test IDs and stay.
	builds := map[string]func(budget int) (*Trial, error){
		"sync":        func(b int) (*Trial, error) { return NewTrial(g, 0, SyncConfig{Protocol: Push, MaxRounds: b}, 0, false) },
		"ppx":         func(b int) (*Trial, error) { return NewTrial(g, 0, SyncConfig{MaxRounds: b}, PPX, false) },
		"quasirandom": func(b int) (*Trial, error) { return NewTrial(g, 0, SyncConfig{Protocol: Push, MaxRounds: b}, 0, true) },
		"thinning": func(b int) (*Trial, error) {
			return NewTrial(g, 0, AsyncConfig{Protocol: Push, MaxSteps: int64(b)}, 0, false)
		},
		"heap-node": func(b int) (*Trial, error) {
			return NewTrial(g, 0, AsyncConfig{Protocol: Push, View: PerNodeClocks, Crashes: crash, MaxSteps: int64(b)}, 0, false)
		},
		"heap-edge": func(b int) (*Trial, error) {
			return NewTrial(g, 0, AsyncConfig{Protocol: Push, View: PerEdgeClocks, Crashes: crash, MaxSteps: int64(b)}, 0, false)
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			trial, err := build(3)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 2; i++ {
				out, err := trial.Run(xrand.New(i))
				if !errors.Is(err, ErrBudget) {
					t.Fatalf("run %d: err = %v, want ErrBudget", i, err)
				}
				if out.Complete() || out.Work() == 0 {
					t.Fatalf("run %d: partial outcome missing (complete=%v, work=%d)", i, out.Complete(), out.Work())
				}
				if _, err := out.SpreadingTime(); err == nil {
					t.Fatalf("run %d: an incomplete outcome has a spreading time", i)
				}
			}
			roomy, err := build(0)
			if err != nil {
				t.Fatal(err)
			}
			out, err := roomy.Run(xrand.New(1))
			if err != nil || !out.Complete() {
				t.Fatalf("default budget: err = %v, complete = %v", err, out.Complete())
			}
		})
	}
}

// TestTrialRejectsUnsupportedScenarios: scenario combinations no engine
// models fail at compile time with the matching sentinel.
func TestTrialRejectsUnsupportedScenarios(t *testing.T) {
	g := mustGraph(graph.Hypercube(4))
	static := graph.NewStatic(g)
	dynamic, err := graph.NewResample(g, 1, func(uint64) (*graph.Graph, error) { return g, nil })
	if err != nil {
		t.Fatal(err)
	}
	leave := []ChurnEvent{{Node: 1, Time: 1, Op: ChurnLeave}}
	cases := map[string]struct {
		build func() (*Trial, error)
		want  error
	}{
		"source out of range": {func() (*Trial, error) { return NewTrial(static, 16, SyncConfig{Protocol: Push}, 0, false) }, ErrBadSource},
		"crash per-node source out of range": {func() (*Trial, error) {
			return NewTrial(static, 16, AsyncConfig{Protocol: Push, View: PerNodeClocks, Crashes: []Crash{{Node: 1, Time: 1}}}, 0, false)
		}, ErrBadSource},
		"crash per-edge crash node out of range": {func() (*Trial, error) {
			return NewTrial(static, 0, AsyncConfig{Protocol: Push, View: PerEdgeClocks, Crashes: []Crash{{Node: 99, Time: 1}}}, 0, false)
		}, ErrBadCrash},
		"async variant":         {func() (*Trial, error) { return NewTrial(static, 0, AsyncConfig{Protocol: PushPull}, PPX, false) }, ErrBadProtocol},
		"variant + quasirandom": {func() (*Trial, error) { return NewTrial(static, 0, SyncConfig{}, PPY, true) }, ErrBadProtocol},
		"variant push":          {func() (*Trial, error) { return NewTrial(static, 0, SyncConfig{Protocol: Push}, PPX, false) }, ErrBadProtocol},
		"variant churn":         {func() (*Trial, error) { return NewTrial(static, 0, SyncConfig{Churn: leave}, PPX, false) }, ErrBadChurn},
		"variant dynamic":       {func() (*Trial, error) { return NewTrial(dynamic, 0, SyncConfig{}, PPX, false) }, ErrBadProtocol},
		"variant crashes": {func() (*Trial, error) {
			return NewTrial(static, 0, SyncConfig{Crashes: []Crash{{Node: 1, Time: 1}}}, PPY, false)
		}, ErrBadCrash},
		"variant extra sources": {func() (*Trial, error) {
			return NewTrial(static, 0, SyncConfig{ExtraSources: []graph.NodeID{3}}, PPX, false)
		}, ErrBadProtocol},
		"quasirandom crashes": {func() (*Trial, error) {
			return NewTrial(static, 0, SyncConfig{Protocol: Push, Crashes: []Crash{{Node: 1, Time: 1}}}, 0, true)
		}, ErrBadCrash},
		"per-edge churn": {func() (*Trial, error) {
			return NewTrial(static, 0, AsyncConfig{Protocol: Push, View: PerEdgeClocks, Churn: leave}, 0, false)
		}, ErrBadView},
		"per-edge dynamic": {func() (*Trial, error) {
			return NewTrial(dynamic, 0, AsyncConfig{Protocol: Push, View: PerEdgeClocks}, 0, false)
		}, ErrBadView},
		"bad view": {func() (*Trial, error) {
			return NewTrial(static, 0, AsyncConfig{Protocol: Push, View: 9, Crashes: []Crash{{Node: 1, Time: 1}}}, 0, false)
		}, ErrBadView},
	}
	for name, tc := range cases {
		if _, err := tc.build(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
}

// TestTrialObserverSeesEachSourceOnce: compiling a trial must not
// replay the source notifications of the first Run.
func TestTrialObserverSeesEachSourceOnce(t *testing.T) {
	g := mustGraph(graph.Hypercube(4))
	for _, quasirandom := range []bool{false, true} {
		obs := &informTracker{informed: make([]bool, g.NumNodes())}
		trial, err := NewTrial(graph.NewStatic(g), 0, SyncConfig{Protocol: PushPull, Observer: obs}, 0, quasirandom)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trial.Run(xrand.New(1)); err != nil {
			t.Fatal(err)
		}
		if obs.bad || obs.count != g.NumNodes() {
			t.Errorf("quasirandom=%v: observer saw %d informings (duplicate=%v), want %d distinct",
				quasirandom, obs.count, obs.bad, g.NumNodes())
		}
	}
}

// Steady-state runs on a reused trial must not allocate for the
// stepper-backed engines (the arena claim behind the pooled service
// trials), including the outcome view.
func TestTrialZeroAllocSteadyState(t *testing.T) {
	g := graph.NewStatic(mustGraph(graph.Hypercube(6)))
	root := xrand.New(5)
	// Child streams are pre-built: the one allocation per trial in real
	// use is the *RNG itself.
	children := make([]*xrand.RNG, 128)
	for i := range children {
		children[i] = root.Child(uint64(i))
	}
	builds := map[string]func() (*Trial, error){
		"sync":        func() (*Trial, error) { return NewTrial(g, 0, SyncConfig{Protocol: PushPull}, 0, false) },
		"async":       func() (*Trial, error) { return NewTrial(g, 0, AsyncConfig{Protocol: PushPull}, 0, false) },
		"ppx":         func() (*Trial, error) { return NewTrial(g, 0, SyncConfig{}, PPX, false) },
		"quasirandom": func() (*Trial, error) { return NewTrial(g, 0, SyncConfig{Protocol: PushPull}, 0, true) },
	}
	for name, build := range builds {
		trial, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trial.Run(children[0]); err != nil {
			t.Fatal(err)
		}
		i := 0
		var sink float64
		allocs := testing.AllocsPerRun(50, func() {
			i++
			out, err := trial.Run(children[i%len(children)])
			if err != nil {
				panic(err)
			}
			sink += out.Time() + float64(out.Work())
		})
		if allocs > 0 {
			t.Errorf("%s: Run on a reused trial allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}

// TestCheckScenarioIsNewTrialsJudge: over the whole option space (timing,
// protocol, view, variant, quasirandom, topology, schedule), NewTrial on
// a graph that holds every node fails exactly when CheckScenario does,
// with its error.
func TestCheckScenarioIsNewTrialsJudge(t *testing.T) {
	g := mustGraph(graph.Hypercube(4))
	dynamic, err := graph.NewResample(g, 1, func(uint64) (*graph.Graph, error) { return g, nil })
	if err != nil {
		t.Fatal(err)
	}
	schedules := []SyncConfig{
		{},
		{ExtraSources: []graph.NodeID{5}},
		{Crashes: []Crash{{Node: 3, Time: 1}}},
		{Churn: []ChurnEvent{{Node: 2, Time: 1, Op: ChurnLeave}, {Node: 2, Time: 2, Op: ChurnJoin, DropState: true}}},
	}
	accepted := 0
	for _, topo := range []graph.Provider{graph.NewStatic(g), dynamic} {
		_, static := topo.(*graph.Static)
		for p := Protocol(0); p <= PushPull+1; p++ {
			for _, prob := range []float64{0, 0.5, 1.5} {
				for variant := PPVariant(0); variant <= PPY+1; variant++ {
					for _, qr := range []bool{false, true} {
						for _, s := range schedules {
							s.Protocol, s.TransmitProb = p, prob
							check := func(name string, want, got error) {
								if (want == nil) != (got == nil) || want != nil && want.Error() != got.Error() {
									t.Errorf("%s p=%d prob=%v variant=%d qr=%t static=%t %+v: CheckScenario %v, NewTrial %v",
										name, p, prob, variant, qr, static, s, want, got)
								}
								if got == nil {
									accepted++
								}
							}
							_, got := NewTrial(topo, 0, s, variant, qr)
							check("sync", CheckScenario(s, variant, qr, !static), got)
							for view := AsyncView(0); view <= PerEdgeClocks+1; view++ {
								a := AsyncConfig{Protocol: p, View: view, TransmitProb: prob,
									ExtraSources: s.ExtraSources, Crashes: s.Crashes, Churn: s.Churn}
								_, got := NewTrial(topo, 0, a, variant, qr)
								check("async", CheckScenario(a, variant, qr, !static), got)
							}
						}
					}
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no scenario accepted")
	}
}
