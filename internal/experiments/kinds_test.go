package experiments

import (
	"testing"

	"rumor/internal/service"
)

// The experiment kinds are one API request away (POST /v1/jobs with an
// explicit cell list), so their parameter spaces must be bounded at
// validation time: an absurd k would allocate per-spec, an absurd
// iters would pin a scheduler worker on a non-cancellable iteration.
func TestKindParamValidation(t *testing.T) {
	bad := []struct {
		name string
		spec service.CellSpec
	}{
		{"lemma8 huge k", service.CellSpec{Kind: KindLemma8, Trials: 1, Params: map[string]float64{"k": 1e18}}},
		{"lemma8 k = 0", service.CellSpec{Kind: KindLemma8, Trials: 1, Params: map[string]float64{"k": 0}}},
		{"lemma8 target out of range", service.CellSpec{Kind: KindLemma8, Trials: 1,
			Params: map[string]float64{"k": 3, "target": 3}}},
		{"lemma8 negative lambda", service.CellSpec{Kind: KindLemma8, Trials: 1,
			Params: map[string]float64{"lambda": -1, "target": 0}}},
		{"lemma8 alpha beyond k", service.CellSpec{Kind: KindLemma8, Trials: 1,
			Params: map[string]float64{"k": 2, "target": 0, "alpha5": 1}}},
		{"lemma8 negative alpha", service.CellSpec{Kind: KindLemma8, Trials: 1,
			Params: map[string]float64{"k": 2, "target": 0, "alpha1": -1}}},
		{"lemma8 unknown param", service.CellSpec{Kind: KindLemma8, Trials: 1,
			Params: map[string]float64{"beta": 1}}},
		{"spectral-gap huge iters", service.CellSpec{Kind: KindSpectralGap, Family: "complete", N: 16,
			Trials: 1, Params: map[string]float64{"iters": 1e15}}},
		{"spectral-gap fractional iters", service.CellSpec{Kind: KindSpectralGap, Family: "complete", N: 16,
			Trials: 1, Params: map[string]float64{"iters": 10.5}}},
		{"spectral-gap unknown param", service.CellSpec{Kind: KindSpectralGap, Family: "complete", N: 16,
			Trials: 1, Params: map[string]float64{"steps": 10}}},
		{"coupling with protocol", service.CellSpec{Kind: KindCouplingUpper, Family: "complete", N: 16,
			Protocol: "push", Trials: 1}},
		{"coupling with loss", service.CellSpec{Kind: KindCouplingLower, Family: "complete", N: 16,
			LossProb: 0.5, Trials: 1}},
		{"async-reference n = 65", service.CellSpec{Kind: KindAsyncReference, Family: "complete", N: 65,
			Protocol: "push-pull", Timing: "async", Trials: 1}},
		{"async-reference sync timing", service.CellSpec{Kind: KindAsyncReference, Family: "complete", N: 16,
			Protocol: "push-pull", Timing: "sync", Trials: 1}},
		{"async-reference with loss", service.CellSpec{Kind: KindAsyncReference, Family: "complete", N: 16,
			Protocol: "push-pull", Timing: "async", LossProb: 0.5, Trials: 1}},
		{"async-reference with crashes", service.CellSpec{Kind: KindAsyncReference, Family: "complete", N: 16,
			Protocol: "push-pull", Timing: "async", Crashes: []service.CrashSpec{{Node: 1, Time: 1}}, Trials: 1}},
		{"async-reference with variant", service.CellSpec{Kind: KindAsyncReference, Family: "complete", N: 16,
			Protocol: "push-pull", Timing: "async", Variant: "ppx", Trials: 1}},
	}
	for _, tc := range bad {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	good := []service.CellSpec{
		{Kind: KindLemma8, Trials: 1, Params: map[string]float64{"k": 3, "lambda": 1, "target": 2, "alpha1": 2}},
		{Kind: KindSpectralGap, Family: "complete", N: 16, Trials: 1, Params: map[string]float64{"iters": 100}},
		{Kind: KindCouplingUpper, Family: "complete", N: 16, Trials: 1},
		{Kind: KindAsyncReference, Family: "complete", N: 16, Protocol: "push-pull",
			Timing: "async", View: "per-node-clocks", Trials: 1},
		{Kind: KindAsyncReference, Family: "star", N: 64, Protocol: "pull",
			Timing: "async", View: "per-edge-clocks", Trials: 1},
	}
	for i, spec := range good {
		if err := spec.Validate(); err != nil {
			t.Errorf("good kind spec %d rejected: %v", i, err)
		}
	}
}

// TestEveryExperimentCellValidates: the admission limits (n, trials and
// the adjacency bytes a family's edge estimate implies) refuse no cell
// of the suite, in quick or full mode.
func TestEveryExperimentCellValidates(t *testing.T) {
	for _, quick := range []bool{true, false} {
		for _, e := range All() {
			for i, c := range e.Cells(Config{Quick: quick}) {
				if err := c.Validate(); err != nil {
					t.Errorf("%s quick=%t cell %d: %v", e.ID, quick, i, err)
				}
			}
		}
	}
}

// TestBareKindsRejectScenarioFields: the Lemma 8 sampler and the
// spectral-gap estimator run no rumor, so a scenario field they would
// ignore is refused rather than forking the cell's key; the sampler
// builds no graph, so it refuses a graph seed too.
func TestBareKindsRejectScenarioFields(t *testing.T) {
	lemma8 := service.CellSpec{Kind: KindLemma8, Trials: 1}
	gap := service.CellSpec{Kind: KindSpectralGap, Family: "complete", N: 16, Trials: 1}
	for _, base := range []service.CellSpec{lemma8, gap} {
		if err := base.Validate(); err != nil {
			t.Fatalf("%s: the bare cell is rejected: %v", base.Kind, err)
		}
		for _, tc := range []struct {
			field string
			edit  func(*service.CellSpec)
		}{
			{"protocol", func(c *service.CellSpec) { c.Protocol = "zzz" }},
			{"timing", func(c *service.CellSpec) { c.Timing = "whatever" }},
			{"view", func(c *service.CellSpec) { c.View = "per-node-clocks" }},
			{"variant", func(c *service.CellSpec) { c.Variant = "ppx" }},
			{"quasirandom", func(c *service.CellSpec) { c.Quasirandom = true }},
			{"loss", func(c *service.CellSpec) { c.LossProb = 0.5 }},
			{"extra sources", func(c *service.CellSpec) { c.ExtraSources = []int{1} }},
			{"crashes", func(c *service.CellSpec) { c.Crashes = []service.CrashSpec{{Node: 1, Time: 1}} }},
			{"source", func(c *service.CellSpec) { c.Source = 1 }},
			{"coverage fractions", func(c *service.CellSpec) { c.CoverageFracs = []float64{0.5} }},
		} {
			spec := base
			tc.edit(&spec)
			if err := spec.Validate(); err == nil {
				t.Errorf("%s with %s: accepted", base.Kind, tc.field)
			}
		}
	}
	seeded := lemma8
	seeded.GraphSeed = 7
	if err := seeded.Validate(); err == nil {
		t.Error("lemma8 with a graph seed: accepted")
	}
}
