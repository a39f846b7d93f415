package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rumor/internal/xrand"
)

func TestSummarizeKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s := Summarize(xs)
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if s.Mean != 5 {
		t.Fatalf("Mean = %v", s.Mean)
	}
	// Unbiased variance: sum sq dev = 32, / 7.
	if math.Abs(s.Variance-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %v", s.Variance)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("range [%v, %v]", s.Min, s.Max)
	}
	if s.Median != 4 {
		t.Fatalf("Median = %v", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatal("empty summary not zero")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.StdDev != 0 || s.Median != 3 {
		t.Fatalf("single summary %+v", s)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileUnsortedInput(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Fatalf("median of unsorted = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 9 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHighProbabilityTime(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// n = 100: (1 - 1/100) quantile = 99th value.
	if got := HighProbabilityTime(xs, 100); got != 99 {
		t.Fatalf("T_{1/n} proxy = %v, want 99", got)
	}
	// Huge n: maximum.
	if got := HighProbabilityTime(xs, 1<<30); got != 100 {
		t.Fatalf("T_{1/n} proxy for huge n = %v, want 100", got)
	}
}

func TestKSIdenticalSamples(t *testing.T) {
	rng := xrand.New(1)
	xs := make([]float64, 2000)
	ys := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.Exp(1)
		ys[i] = rng.Exp(1)
	}
	res := KolmogorovSmirnov(xs, ys)
	if res.Statistic > 0.06 {
		t.Fatalf("KS statistic for identical distributions = %v", res.Statistic)
	}
	if res.PValue < 0.01 {
		t.Fatalf("KS rejected identical distributions: p = %v", res.PValue)
	}
}

func TestKSDifferentSamples(t *testing.T) {
	rng := xrand.New(2)
	xs := make([]float64, 2000)
	ys := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.Exp(1)
		ys[i] = rng.Exp(2) // different rate
	}
	res := KolmogorovSmirnov(xs, ys)
	if res.PValue > 1e-6 {
		t.Fatalf("KS failed to reject different distributions: p = %v", res.PValue)
	}
}

func TestKSEmpty(t *testing.T) {
	res := KolmogorovSmirnov(nil, []float64{1})
	if res.PValue != 1 {
		t.Fatalf("empty KS p = %v", res.PValue)
	}
}

func TestKSStatisticExact(t *testing.T) {
	// CDFs: xs jumps at 1 and 2; ys jumps at 3 and 4. Max distance 1.
	res := KolmogorovSmirnov([]float64{1, 2}, []float64{3, 4})
	if res.Statistic != 1 {
		t.Fatalf("disjoint support KS = %v, want 1", res.Statistic)
	}
}

func TestFitPowerLawExact(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	fit, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-1.5) > 1e-9 {
		t.Fatalf("alpha = %v", fit.Alpha)
	}
	if math.Abs(fit.C()-3) > 1e-9 {
		t.Fatalf("C = %v", fit.C())
	}
	if fit.R2 < 0.999999 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, err := FitPowerLaw([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FitPowerLaw([]float64{1, -1}, []float64{1, 1}); err == nil {
		t.Error("negative x accepted")
	}
	if _, err := FitPowerLaw([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero x-variance accepted")
	}
}

func TestFitLogarithmicExact(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 32}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 5 + 2*math.Log(x)
	}
	a, b, r2, err := FitLogarithmic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-5) > 1e-9 || math.Abs(b-2) > 1e-9 || r2 < 0.999999 {
		t.Fatalf("fit = (%v, %v, %v)", a, b, r2)
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("alpha", 1.0)
	tab.AddRow("beta", 2.5)
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.500") {
		t.Fatalf("render missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("got %d lines", len(lines))
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("a", "b")
	tab.AddRow("x,y", 1)
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",1\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}

func TestQuickQuantileWithinRange(t *testing.T) {
	f := func(raw []float64, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
		}
		q := float64(qRaw) / 255
		got := Quantile(raw, q)
		mn, mx := raw[0], raw[0]
		for _, v := range raw {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return got >= mn && got <= mx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKSSymmetric(t *testing.T) {
	rng := xrand.New(5)
	f := func(seed uint64) bool {
		r := rng.Child(seed)
		xs := make([]float64, 50)
		ys := make([]float64, 70)
		for i := range xs {
			xs[i] = r.Float64()
		}
		for i := range ys {
			ys[i] = r.Exp(1)
		}
		a := KolmogorovSmirnov(xs, ys)
		b := KolmogorovSmirnov(ys, xs)
		return math.Abs(a.Statistic-b.Statistic) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDominatedEmpirically(t *testing.T) {
	rng := xrand.New(2)
	small := make([]float64, 500)
	big := make([]float64, 500)
	for i := range small {
		small[i] = rng.Float64()
		big[i] = rng.Float64() + 0.5
	}
	if !DominatedEmpirically(small, big, 0.05) {
		t.Error("clearly smaller sample not dominated")
	}
	if DominatedEmpirically(big, small, 0.05) {
		t.Error("clearly bigger sample reported dominated")
	}
	// A sample dominates itself exactly (gap 0).
	if !DominatedEmpirically(small, small, 0) {
		t.Error("sample does not dominate itself")
	}
	// Empty samples are trivially dominated.
	if !DominatedEmpirically(nil, big, 0) || !DominatedEmpirically(small, nil, 0) {
		t.Error("empty sample handling wrong")
	}
}

func TestDominatedEmpiricallyTolerance(t *testing.T) {
	// xs slightly above ys: dominated only with enough slack.
	xs := []float64{1.1, 2.1, 3.1}
	ys := []float64{1, 2, 3}
	if DominatedEmpirically(xs, ys, 0.2) {
		t.Error("shifted-up sample dominated with small tol")
	}
	if !DominatedEmpirically(xs, ys, 0.4) {
		// Each step the ys CDF leads by 1/3 until xs catches up.
		t.Error("shifted-up sample not dominated with generous tol")
	}
}

func TestDominatedEmpiricallyInt(t *testing.T) {
	xs := []int64{1, 2, 3, 4}
	ys := []int64{2, 3, 4, 5}
	if !DominatedEmpiricallyInt(xs, ys, 0) {
		t.Error("integer domination failed")
	}
	if DominatedEmpiricallyInt(ys, xs, 0.1) {
		t.Error("reverse integer domination accepted")
	}
}
