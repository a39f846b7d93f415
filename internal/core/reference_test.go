package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/stats"
	"rumor/internal/xrand"
)

// asyncSample collects, per trial, the quantities of an asynchronous
// run that the model itself defines. AsyncResult.Time is deliberately
// not among them: on a run halted by the strandedness scan it is the
// detection time, which depends on how an engine counts steps.
type asyncSample struct {
	last, informed, q50 []float64
}

func (s *asyncSample) add(r *AsyncResult) {
	last := 0.0
	for _, t := range r.InformedAt {
		if t > last {
			last = t
		}
	}
	s.last = append(s.last, last)
	s.informed = append(s.informed, float64(r.NumInformed))
	s.q50 = append(s.q50, r.CoverageTime(0.5))
}

// mismatches lists the quantities on which the two samples fail a KS
// test at p > 0.001: the gate between the engine and its reference.
func (s *asyncSample) mismatches(ref *asyncSample) []string {
	var bad []string
	for _, q := range []struct {
		name     string
		got, ref []float64
	}{
		{"time of last informing", s.last, ref.last},
		{"informed count", s.informed, ref.informed},
		{"q50 coverage time", s.q50, ref.q50},
	} {
		if ks := stats.KolmogorovSmirnov(q.got, q.ref); ks.PValue <= 0.001 {
			bad = append(bad, fmt.Sprintf("%s (KS=%.3f p=%.5f)", q.name, ks.Statistic, ks.PValue))
		}
	}
	return bad
}

// referenceTrials is the sample size a side of every engine-vs-reference
// comparison.
const referenceTrials = 2000

type referenceScenario struct {
	g   *graph.Graph
	cfg AsyncConfig
}

// referenceScenarios is every static asynchronous scenario shape — each
// view, lossy and one-way protocols, crashes, leave-only churn, churn
// with an amnesiac rejoin, a degree-0 vertex, a crashed hub — by name,
// with the names in the order that fixes each row's seed block.
func referenceScenarios(t *testing.T) ([]string, map[string]referenceScenario) {
	b := graph.NewBuilder(34).SetName("star33+isolated")
	for i := graph.NodeID(1); i <= 32; i++ {
		b.AddEdge(0, i)
	}
	withIso := mustGraph(b.Build())
	cube := mustGraph(graph.Hypercube(5))
	star20 := mustGraph(graph.Star(20))
	hubCrash := []Crash{{Node: 0, Time: 0.7}}

	cases := map[string]referenceScenario{
		"hypercube per-edge":         {cube, AsyncConfig{Protocol: PushPull, View: PerEdgeClocks}},
		"star+isolated per-node":     {withIso, AsyncConfig{Protocol: PushPull, View: PerNodeClocks}},
		"star+isolated per-edge":     {withIso, AsyncConfig{Protocol: PushPull, View: PerEdgeClocks}},
		"star hub crash global":      {star20, AsyncConfig{Protocol: PushPull, Crashes: hubCrash}},
		"star hub crash per-node":    {star20, AsyncConfig{Protocol: PushPull, View: PerNodeClocks, Crashes: hubCrash}},
		"star hub crash per-edge":    {star20, AsyncConfig{Protocol: PushPull, View: PerEdgeClocks, Crashes: hubCrash}},
		"hypercube crashes per-edge": {cube, AsyncConfig{Protocol: PushPull, View: PerEdgeClocks, Crashes: []Crash{{Node: 3, Time: 2}, {Node: 11, Time: 4}}}},
	}
	for name, sc := range trialScenarios(t) {
		if sc.g != nil {
			cases[name] = referenceScenario{sc.g, sc.async}
		}
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, cases
}

// sample runs the scenario referenceTrials times through the literal
// specification and as many through the engine NewTrial compiles, on
// seed block number block: one half for the reference, one for the
// engine.
func (sc referenceScenario) sample(t *testing.T, block int) (ref, compiled asyncSample) {
	t.Helper()
	seed := uint64(block) * 2 * referenceTrials
	trial, err := NewTrial(graph.NewStatic(sc.g), 0, sc.cfg, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < referenceTrials; i++ {
		r, err := RunAsyncReference(sc.g, 0, sc.cfg, xrand.New(seed+i))
		if err != nil {
			t.Fatal(err)
		}
		ref.add(r)
		out, err := trial.Run(xrand.New(seed + referenceTrials + i))
		if err != nil {
			t.Fatal(err)
		}
		compiled.add(out.Async)
	}
	return ref, compiled
}

// TestAsyncEnginesMatchReference: on every static asynchronous scenario
// shape the engine NewTrial compiles has the same law as the literal
// exponential-clock specification. What the gate would catch is
// TestAsyncOracleHasTeeth's subject.
func TestAsyncEnginesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	names, cases := referenceScenarios(t)
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			ref, compiled := cases[name].sample(t, i)
			for _, bad := range compiled.mismatches(&ref) {
				t.Errorf("%s differs from the reference", bad)
			}
		})
	}
}

// TestAsyncReferenceValidation: the specification rejects what the
// engines reject, and reports budget exhaustion the same way.
func TestAsyncReferenceValidation(t *testing.T) {
	g := mustGraph(graph.Cycle(16))
	for name, tc := range map[string]struct {
		src  graph.NodeID
		cfg  AsyncConfig
		want error
	}{
		"source":     {16, AsyncConfig{Protocol: Push}, ErrBadSource},
		"protocol":   {0, AsyncConfig{}, ErrBadProtocol},
		"view":       {0, AsyncConfig{Protocol: Push, View: 9}, ErrBadView},
		"crash node": {0, AsyncConfig{Protocol: Push, Crashes: []Crash{{Node: 16, Time: 1}}}, ErrBadCrash},
		"churn time": {0, AsyncConfig{Protocol: Push, Churn: []ChurnEvent{{Node: 1, Time: -1, Op: ChurnLeave}}}, ErrBadChurn},
		"churn drop": {0, AsyncConfig{Protocol: Push, Churn: []ChurnEvent{{Node: 1, Time: 1, Op: ChurnLeave, DropState: true}}}, ErrBadChurn},
		"budget":     {0, AsyncConfig{Protocol: Push, MaxSteps: 3}, ErrBudget},
	} {
		if _, err := RunAsyncReference(g, tc.src, tc.cfg, xrand.New(1)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
}
