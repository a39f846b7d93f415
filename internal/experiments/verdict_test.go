package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"rumor/internal/service"
	"rumor/internal/stats"
)

// TestBandHelpers pins the edge semantics every reducer shares: a
// statistic equal to an edge stays on the better side, and NaN is FAILED.
func TestBandHelpers(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	below := func(x float64) float64 { return math.Nextafter(x, -inf) }
	above := func(x float64) float64 { return math.Nextafter(x, inf) }
	for _, tc := range []struct {
		name      string
		got, want Verdict
	}{
		{"atMost at supported edge", atMost(6, 6, 12), Supported},
		{"atMost just inside supported edge", atMost(below(6), 6, 12), Supported},
		{"atMost just outside supported edge", atMost(above(6), 6, 12), Borderline},
		{"atMost at borderline edge", atMost(12, 6, 12), Borderline},
		{"atMost just inside borderline edge", atMost(below(12), 6, 12), Borderline},
		{"atMost just outside borderline edge", atMost(above(12), 6, 12), Failed},
		{"atMost -Inf", atMost(-inf, 6, 12), Supported},
		{"atMost +Inf", atMost(inf, 6, 12), Failed},
		{"atMost NaN", atMost(nan, 6, 12), Failed},
		{"atLeast at supported edge", atLeast(0.005, 0.005, 1e-6), Supported},
		{"atLeast just inside supported edge", atLeast(above(0.005), 0.005, 1e-6), Supported},
		{"atLeast just outside supported edge", atLeast(below(0.005), 0.005, 1e-6), Borderline},
		{"atLeast at borderline edge", atLeast(1e-6, 0.005, 1e-6), Borderline},
		{"atLeast just inside borderline edge", atLeast(above(1e-6), 0.005, 1e-6), Borderline},
		{"atLeast just outside borderline edge", atLeast(below(1e-6), 0.005, 1e-6), Failed},
		{"atLeast +Inf", atLeast(inf, 0.005, 1e-6), Supported},
		{"atLeast -Inf", atLeast(-inf, 0.005, 1e-6), Failed},
		{"atLeast NaN", atLeast(nan, 0.005, 1e-6), Failed},
		{"holds true", holds(true, Failed), Supported},
		{"holds false, borderline", holds(false, Borderline), Borderline},
		{"holds false, failed", holds(false, Failed), Failed},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

// TestUpperBoundVerdictsHaveTeeth: each of the four upper-bound ratio
// claims leaves SUPPORTED, then BORDERLINE, as its statistic crosses the
// edges. The statistic is the maximum over cell pairs of a ratio that is
// linear in one side's Times, so scaling that side's Times moves it to
// 1 % either side of each edge.
func TestUpperBoundVerdictsHaveTeeth(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick cells of four experiments")
	}
	q99 := func(r *service.CellResult) float64 { return stats.Quantile(r.Times, 0.99) }
	logN := func(r *service.CellResult) float64 { return math.Log(float64(r.N)) }
	for _, tc := range []struct {
		e                     Experiment
		scaleSecond           bool // scale the second cell of each pair, else the first
		ratio                 func(a, b *service.CellResult) float64
		supported, borderline float64
	}{
		{E02Theorem1(), true, func(s, a *service.CellResult) float64 { return q99(a) / (q99(s) + logN(s)) }, 6, 12},
		{E03Theorem2(), false, func(s, a *service.CellResult) float64 {
			return stats.Mean(s.Times) / stats.Mean(a.Times) / math.Sqrt(float64(s.N))
		}, 2, 6},
		{E06SyncPushVsAsyncPush(), false, func(s, a *service.CellResult) float64 { return q99(s) / q99(a) }, 4, 10},
		{E14ExpansionBounds(), true, func(g, a *service.CellResult) float64 { return q99(a) * g.Times[0] / logN(a) }, 3, 10},
	} {
		t.Run(tc.e.ID, func(t *testing.T) {
			cfg := Config{Quick: true}
			results, err := cfg.runner().RunCells(context.Background(), tc.e.Cells(cfg))
			if err != nil {
				t.Fatal(err)
			}
			stat := 0.0
			for i := 0; i < len(results); i += 2 {
				stat = math.Max(stat, tc.ratio(results[i], results[i+1]))
			}
			for _, step := range []struct {
				target float64
				want   Verdict
			}{
				{0.99 * tc.supported, Supported},
				{1.01 * tc.supported, Borderline},
				{0.99 * tc.borderline, Borderline},
				{1.01 * tc.borderline, Failed},
			} {
				s := step.target / stat
				scaled := make([]*service.CellResult, len(results))
				for i, r := range results {
					c := *r
					if (i%2 == 1) == tc.scaleSecond {
						c.Times = make([]float64, len(r.Times))
						for j, v := range r.Times {
							c.Times[j] = s * v
						}
					}
					scaled[i] = &c
				}
				o, err := tc.e.Reduce(cfg, scaled)
				if err != nil {
					t.Fatal(err)
				}
				if o.Verdict != step.want {
					t.Errorf("statistic scaled to %.4g (edges %g, %g): %v — %s, want %v",
						step.target, tc.supported, tc.borderline, o.Verdict, o.Summary, step.want)
				}
			}
		})
	}
}

// The reducer tests below feed synthetic cell results, so they run no
// cells and stay on under -short.

// An async milestone some trial never reached reads −1; E9 must not
// count it as async reaching 50 % coverage first.
func TestE9UnreachedAsyncMilestoneIsNotFaster(t *testing.T) {
	cov := func(q50, q99 float64) map[string]float64 {
		return map[string]float64{service.CoverageName(0.5): q50, service.CoverageName(0.99): q99}
	}
	results := []*service.CellResult{
		{N: 1000, Coverage: cov(4, 7)},   // powerlaw sync
		{N: 1000, Coverage: cov(-1, -1)}, // powerlaw async: unreached
		{N: 1000, Coverage: cov(5, 8)},   // pref-attach sync
		{N: 1000, Coverage: cov(3, 6)},   // pref-attach async
	}
	o, err := E09SocialNetworks().Reduce(Config{Quick: true}, results)
	if err != nil {
		t.Fatal(err)
	}
	if o.Verdict != Borderline || !strings.HasSuffix(o.Summary, ": false") {
		t.Errorf("unreached async milestone: %v — %s, want BORDERLINE and \"false\"", o.Verdict, o.Summary)
	}
}

// E11's summary states the gap comparison that held, not always "< 0.5".
func TestE11SummaryStatesTheGapComparisonThatHeld(t *testing.T) {
	var results []*service.CellResult
	for _, k := range e11Ks(Config{Quick: true}) {
		n := k * k * k
		sync := math.Pow(float64(n), 0.8)
		results = append(results,
			&service.CellResult{N: n, Times: []float64{sync, sync}},
			&service.CellResult{N: n, Times: []float64{5, 5}})
	}
	o, err := E11DiamondChain().Reduce(Config{Quick: true}, results)
	if err != nil {
		t.Fatal(err)
	}
	if o.Verdict != Failed || !strings.Contains(o.Summary, "gap 0.80 ≥ 0.5") || strings.Contains(o.Summary, "< 0.5") {
		t.Errorf("gap 0.8: %v — %s, want FAILED and \"gap 0.80 ≥ 0.5\"", o.Verdict, o.Summary)
	}
}

// E17's summary claims full coverage at the threshold only when both
// threshold cells reached it.
func TestE17SummaryClaimsThresholdCoverageOnlyWhenReached(t *testing.T) {
	q100 := service.CoverageName(1)
	var results []*service.CellResult
	for range e17Timings {
		for range e17Scenarios {
			results = append(results, &service.CellResult{N: e17N, Times: []float64{5, 5}, Coverage: map[string]float64{q100: 5}})
		}
	}
	results = append(results,
		&service.CellResult{N: e17N, Times: []float64{5, 5}, Coverage: map[string]float64{q100: -1}},
		&service.CellResult{N: e17N, Times: []float64{5, 5}, Coverage: map[string]float64{q100: 5}})
	o, err := E17DynamicChurn().Reduce(Config{Quick: true}, results)
	if err != nil {
		t.Fatal(err)
	}
	if o.Verdict != Failed || strings.Contains(o.Summary, "reaches full coverage") {
		t.Errorf("a threshold cell short of full coverage: %v — %s, want FAILED and no full-coverage claim", o.Verdict, o.Summary)
	}
}
