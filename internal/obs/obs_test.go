package obs

import (
	"context"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_events_total", "events")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
}

func TestCounterRejectsDecrement(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "t")
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "t")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("test_depth", "d")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_seconds", "s", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	counts, sum, total := h.snapshot()
	// 0.05 and 0.1 land in le=0.1 (bounds are inclusive), 0.5 in le=1,
	// 5 in le=10, 50 in +Inf.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts=%v)", i, counts[i], w, counts)
		}
	}
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	if math.Abs(sum-55.65) > 1e-9 {
		t.Fatalf("sum = %v, want 55.65", sum)
	}
}

func TestHistogramDefaultBucketsAndInfStrip(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_default_seconds", "s", nil)
	if got, want := len(h.Buckets()), len(DefBuckets); got != want {
		t.Fatalf("default buckets = %d, want %d", got, want)
	}
	h2 := r.NewHistogram("test_inf_seconds", "s", []float64{1, math.Inf(+1)})
	if got := h2.Buckets(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("explicit +Inf not stripped: %v", got)
	}
}

func TestVecChildrenIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("test_by_kind_total", "t", "kind")
	v.With("a").Inc()
	v.With("a").Inc()
	v.With("b").Inc()
	if got := v.With("a").Value(); got != 2 {
		t.Fatalf("kind=a = %v, want 2", got)
	}
	if got := v.With("b").Value(); got != 1 {
		t.Fatalf("kind=b = %v, want 1", got)
	}
}

func TestRegisterPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"invalid name", func(r *Registry) { r.NewCounter("0bad", "t") }},
		{"dup name", func(r *Registry) { r.NewCounter("dup_total", "t"); r.NewCounter("dup_total", "t") }},
		{"invalid label", func(r *Registry) { r.NewCounterVec("x_total", "t", "0bad") }},
		{"reserved label", func(r *Registry) { r.NewCounterVec("y_total", "t", "__name__") }},
		{"vec without labels", func(r *Registry) { r.NewCounterVec("z_total", "t") }},
		{"unsorted buckets", func(r *Registry) { r.NewHistogram("h_seconds", "t", []float64{2, 1}) }},
		{"wrong label arity", func(r *Registry) { r.NewCounterVec("w_total", "t", "a").With("x", "y") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestFamiliesSorted(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("b_total", "b")
	r.NewGauge("a_depth", "a")
	got := r.Families()
	if len(got) != 2 || got[0] != "a_depth" || got[1] != "b_total" {
		t.Fatalf("Families = %v", got)
	}
	if help, ok := r.Help("a_depth"); !ok || help != "a" {
		t.Fatalf("Help(a_depth) = %q, %v", help, ok)
	}
}

func TestOnCollectRunsAtScrape(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("test_mirror", "mirrored")
	n := 0
	r.OnCollect(func() { n++; g.Set(float64(n) * 10) })
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("collect hook ran %d times, want 2", n)
	}
	if g.Value() != 20 {
		t.Fatalf("mirror = %v, want 20", g.Value())
	}
}

// TestNilInstrumentsAreNoOps is the "instrumentation is optional"
// contract: a nil registry hands out nil instruments, and every method
// of a nil instrument or vec does nothing, allocates nothing, and never
// panics — so un-instrumented callers pay no more than a nil check.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c, g, h := r.NewCounter("c_total", "c"), r.NewGauge("g", "g"), r.NewHistogram("h_seconds", "h", nil)
	cv := r.NewCounterVec("cv_total", "cv", "a", "b")
	gv := r.NewGaugeVec("gv", "gv", "a")
	hv := r.NewHistogramVec("hv_seconds", "hv", nil, "a")
	if c != nil || g != nil || h != nil || cv != nil || gv != nil || hv != nil {
		t.Fatalf("nil registry handed out a live instrument: %v %v %v %v %v %v", c, g, h, cv, gv, hv)
	}
	// The same names twice, and a vec without labels: a nil registry
	// registers nothing, so nothing can collide or be malformed.
	r.NewCounter("c_total", "c")
	r.NewCounterVec("no_labels_total", "x")
	r.OnCollect(func() { t.Error("collect hook ran on a nil registry") })
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry WriteText = %q, %v", sb.String(), err)
	}
	if err := WriteSnapshot("-", r.WriteText); err != nil {
		t.Fatalf("snapshot of a nil registry: %v", err)
	}

	kind, outcome := "time", "computed" // variables, as at real call sites
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		c.Add(-1) // not even the decrement check runs
		c.Set(7)
		g.Set(1)
		g.Inc()
		g.Dec()
		g.Add(-2)
		h.Observe(0.5)
		cv.With(kind, outcome).Inc()
		cv.With("wrong arity").Add(2)
		gv.With(kind).Set(4)
		release := gv.With(kind).Dec // a bound method of a nil gauge
		release()
		hv.With(kind).Observe(1)
		if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Buckets() != nil {
			t.Error("nil instrument reported a value")
		}
	})
	if allocs != 0 {
		t.Errorf("nil instruments allocated %v times per run, want 0", allocs)
	}
}

func TestOrZeroAndOrDiscard(t *testing.T) {
	type metrics struct{ hits *Counter }
	var none *metrics
	m := OrZero(none)
	m.hits.Inc() // the zero struct's nil instrument
	if some := (&metrics{}); OrZero(some) != some {
		t.Error("OrZero replaced a non-nil pointer")
	}
	l := OrDiscard(nil)
	l.Info("dropped", "k", "v")
	if l.Enabled(context.Background(), slog.LevelError) {
		t.Error("discard logger is enabled")
	}
	if real := slog.Default(); OrDiscard(real) != real {
		t.Error("OrDiscard replaced a non-nil logger")
	}
}
