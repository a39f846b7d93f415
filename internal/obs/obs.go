// Package obs is the repository's operability layer: a stdlib-only
// metrics registry (counters, gauges, histograms, each optionally
// labelled) that serves the Prometheus text exposition format, a
// parser for that format (so tests and the typed SDK can read scrapes
// back), and structured-logging helpers (log/slog setup plus
// request-ID correlation through contexts).
//
// Design constraints, in order:
//
//  1. No dependencies beyond the standard library — the container has
//     no prometheus/client_golang and never will.
//  2. Never perturb the measurement path: counters are lock-free
//     atomics, histograms take one short mutex, and nothing in this
//     package allocates on the hot path after instrument creation.
//  3. The exposition is deterministic: families sort by name, series
//     by label values, so scrapes diff cleanly and golden tests hold.
//
// Metric families are registered once (duplicate or invalid names
// panic — misnaming a metric is a programming error on par with a
// malformed struct tag) and live for the registry's lifetime.
// Collect hooks (OnCollect) bridge subsystems that already maintain
// consistent snapshot counters (the cache tiers, the cachestore):
// they run at scrape time and copy the snapshot into registered
// instruments, instead of double-counting in two places.
//
// Instrumentation is optional, and that is decided here, once: a nil
// *Registry hands out nil instruments, and every method of a nil
// *Counter, *Gauge, *Histogram or *…Vec is a no-op (With returns nil,
// Value returns 0). Subsystems therefore hold plain instrument fields
// and call them unconditionally; "metrics off" is the zero value of
// their instrument struct, not a guard at every call site.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric and label names must match the Prometheus data model. The
// exposition test and the naming lint test both key on these.
var (
	// NameRE is the legal metric-name pattern.
	NameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	// LabelRE is the legal label-name pattern.
	LabelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Instrument types, as rendered on # TYPE lines.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// DefBuckets are the default histogram boundaries (seconds): the
// Prometheus defaults, which span sub-millisecond cache hits to
// ten-second cold cells.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExpBuckets returns n exponentially growing boundaries starting at
// start and multiplying by factor (for byte-size and queue-wait
// scales). It panics on a non-positive start, a factor <= 1, or n < 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: invalid ExpBuckets(%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// OrZero returns p, or a fresh zero T when p is nil. Subsystems whose
// instruments live in a struct of obs fields use it to resolve an
// optional *Metrics once at construction: the zero struct's nil
// instruments are the no-ops described above.
func OrZero[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}

// Registry holds metric families and collect hooks. All methods are
// safe for concurrent use; registration normally happens at startup
// and scrapes at runtime.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	collects []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnCollect registers fn to run at the start of every exposition
// (WriteText). Hooks copy externally maintained consistent snapshots
// (cache stats, store stats) into registered instruments.
func (r *Registry) OnCollect(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collects = append(r.collects, fn)
}

// Families returns the registered family names, sorted — the surface
// the metrics-naming lint test iterates.
func (r *Registry) Families() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Help returns the registered help string for a family name.
func (r *Registry) Help(name string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return "", false
	}
	return f.help, true
}

// Type returns a family's type (TypeCounter, TypeGauge, TypeHistogram).
// With Families and Help it lets naming-convention tests audit every
// registered family — including label-vecs that have no children yet
// and therefore never appear in a scrape.
func (r *Registry) Type(name string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return "", false
	}
	return f.typ, true
}

// Labels returns a family's label names in registration order (empty
// for an unlabelled family).
func (r *Registry) Labels(name string) ([]string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return nil, false
	}
	return append([]string(nil), f.labels...), true
}

// family is one metric family: a name, type, help, a label schema, and
// the set of label-value children.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histogram families only

	mu       sync.Mutex
	children map[string]child
}

// child is one labelled series of a family.
type child struct {
	labelValues []string
	metric      interface{} // *Counter, *Gauge, or *Histogram
}

// register validates and installs a new family.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	if !NameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !LabelRE.MatchString(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	if typ == TypeHistogram {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		if !sort.Float64sAreSorted(buckets) {
			panic(fmt.Sprintf("obs: histogram %q buckets are not sorted", name))
		}
		// A trailing +Inf boundary is implicit; strip an explicit one.
		if math.IsInf(buckets[len(buckets)-1], +1) {
			buckets = buckets[:len(buckets)-1]
		}
		buckets = append([]float64(nil), buckets...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]child),
	}
	r.families[name] = f
	return f
}

// childKey renders label values into the child map key (and the
// exposition sort key): values joined by 0xff, a byte that cannot
// appear in UTF-8 text labels' separator position ambiguously.
func childKey(values []string) string { return strings.Join(values, "\xff") }

// get returns (creating if needed) the child for the given label
// values, using mk to build a fresh metric.
func (f *family) get(values []string, mk func() interface{}) interface{} {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c.metric
	}
	m := mk()
	f.children[key] = child{labelValues: append([]string(nil), values...), metric: m}
	return m
}

// sortedChildren snapshots the family's children in label-value order.
func (f *family) sortedChildren() []child {
	f.mu.Lock()
	out := make([]child, 0, len(f.children))
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, f.children[k])
	}
	f.mu.Unlock()
	return out
}

// Counter is a monotonically increasing value. The Set escape hatch
// exists only for collect-hook mirrors of externally maintained
// monotone counters (cache hit totals, store append totals) — direct
// instrumentation should only ever Inc/Add.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v, which must be non-negative.
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		panic(fmt.Sprintf("obs: counter decrement %v", v))
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Set overwrites the value (collect-hook mirrors only; see type doc).
func (c *Counter) Set(v float64) {
	if c != nil {
		c.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set overwrites the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Add adds v (negative subtracts).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative buckets and tracks
// their sum — the raw material of latency quantiles and rate/mean
// queries. The bucket boundaries are fixed at registration (and
// exported on every scrape as the standard le-labelled series).
type Histogram struct {
	buckets []float64 // upper bounds, sorted, +Inf implicit

	mu     sync.Mutex
	counts []uint64 // len(buckets)+1; last is the +Inf bucket
	sum    float64
	total  uint64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]uint64, len(buckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// snapshot returns (bucket counts, sum, total) consistently.
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()
	return counts, sum, total
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Buckets returns the upper bucket boundaries (excluding the implicit
// +Inf bucket).
func (h *Histogram) Buckets() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.buckets...)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ fam *family }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ fam *family }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ fam *family }

// NewCounter registers an unlabelled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, help, TypeCounter, nil, nil)
	return f.get(nil, func() interface{} { return &Counter{} }).(*Counter)
}

// NewCounterVec registers a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: counter vec %q needs labels (use NewCounter)", name))
	}
	return &CounterVec{fam: r.register(name, help, TypeCounter, labels, nil)}
}

// With returns the counter for the given label values (created on
// first use).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.get(values, func() interface{} { return &Counter{} }).(*Counter)
}

// NewGauge registers an unlabelled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(name, help, TypeGauge, nil, nil)
	return f.get(nil, func() interface{} { return &Gauge{} }).(*Gauge)
}

// NewGaugeVec registers a labelled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: gauge vec %q needs labels (use NewGauge)", name))
	}
	return &GaugeVec{fam: r.register(name, help, TypeGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.fam.get(values, func() interface{} { return &Gauge{} }).(*Gauge)
}

// NewHistogram registers an unlabelled histogram. nil buckets select
// DefBuckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.register(name, help, TypeHistogram, nil, buckets)
	return f.get(nil, func() interface{} { return newHistogram(f.buckets) }).(*Histogram)
}

// NewHistogramVec registers a labelled histogram family. nil buckets
// select DefBuckets.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: histogram vec %q needs labels (use NewHistogram)", name))
	}
	return &HistogramVec{fam: r.register(name, help, TypeHistogram, labels, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.fam.get(values, func() interface{} { return newHistogram(v.fam.buckets) }).(*Histogram)
}
