package service

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"

	"rumor/internal/core"
	"rumor/internal/harness"
	"rumor/internal/jsonlayout"
)

// The pinned result layout. A CellResult is encoded at three places (the
// value the disk tier stores, the NDJSON row, the SSE cell payload) and
// decoded at three (a disk hit, the SDK's row and its cell event), and
// each used to be one reflective encoding/json pass. Most results are
// plain: no schedule, no kind-specific series, strings json.Marshal
// copies unchanged (jsonlayout.Plain) and finite numbers. For those,
// json.Marshal and api.EncodeRow write the same bytes, in one fixed
// field order:
//
//	{"index":I,"cell":C,"key":"…"[,"graph":"…"],"n":N,"m":M,"times":[F,…],
//	 "summary":{"N":N,"Mean":F,"Variance":F,"StdDev":F,"Min":F,"Max":F,
//	 "Median":F,"Q25":F,"Q75":F}[,"coverage":{"k":F,…}]}
//
// where C is the cell's object (resultWriter.cell, resultReader.cell;
// the job body of jobbody.go is a list of them),
//
//	{["kind":"…",]["family":"…",]["n":N,]["protocol":"…",]["timing":"…",]
//	 ["view":"…",]["variant":"…",]["quasirandom":true,]["loss_prob":F,]
//	 "trials":T,"graph_seed":U,"trial_seed":U,"source":S
//	 [,"dynamic":"…"][,"dynamic_period":F][,"perturb_rate":F]}
//
// with coverage keys in ascending byte order. appendResult writes that
// layout and DecodeResult reads it in place; anything else goes through
// encoding/json, as before. rows.golden pins the bytes of every encode
// site and FuzzResultCodec holds both directions to encoding/json.

// appendResult appends r to b as json.Marshal writes it (and
// api.EncodeRow, without the newline) and reports true; or it reports
// false, with b's contents unchanged, when r is outside the layout: a
// nil Times, a schedule, coverage fractions, params, series or values,
// a string that is not jsonlayout.Plain, a NaN or infinite number, or
// an integer of more than 18 digits (which the reader would not take
// back).
func appendResult(b []byte, r *CellResult) ([]byte, bool) {
	if r.Times == nil || len(r.Series) > 0 || len(r.Values) > 0 {
		return b, false
	}
	start := len(b)
	w := resultWriter{b: b, ok: true}
	w.raw(`{"index":`)
	w.int(r.Index)
	w.raw(`,"cell":`)
	w.cell(&r.Cell)
	w.raw(`,"key":`)
	w.str(r.Key)
	if r.Graph != "" {
		w.raw(`,"graph":`)
		w.str(r.Graph)
	}
	w.raw(`,"n":`)
	w.int(r.N)
	w.raw(`,"m":`)
	w.int(r.M)
	w.raw(`,"times":[`)
	for i, t := range r.Times {
		if i > 0 {
			w.raw(",")
		}
		w.float(t)
	}
	s := &r.Summary
	w.raw(`],"summary":{"N":`)
	w.int(s.N)
	for _, f := range [...]struct {
		key string
		v   float64
	}{
		{`,"Mean":`, s.Mean}, {`,"Variance":`, s.Variance}, {`,"StdDev":`, s.StdDev},
		{`,"Min":`, s.Min}, {`,"Max":`, s.Max}, {`,"Median":`, s.Median},
		{`,"Q25":`, s.Q25}, {`,"Q75":`, s.Q75},
	} {
		w.raw(f.key)
		w.float(f.v)
	}
	w.raw("}")
	if len(r.Coverage) > 0 {
		var buf [8]string
		keys := buf[:0]
		for k := range r.Coverage {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		w.raw(`,"coverage":{`)
		for i, k := range keys {
			if i > 0 {
				w.raw(",")
			}
			w.str(k)
			w.raw(":")
			w.float(r.Coverage[k])
		}
		w.raw("}")
	}
	w.raw("}")
	if !w.ok {
		return w.b[:start], false
	}
	return w.b, true
}

// resultWriter appends the pinned layout; ok turns false at the first
// string or number the layout does not cover.
type resultWriter struct {
	b  []byte
	ok bool
}

func (w *resultWriter) raw(s string) { w.b = append(w.b, s...) }

// cell writes c's object, or turns ok false without writing when c is
// outside the layout: extra sources, a schedule, coverage fractions or
// params.
func (w *resultWriter) cell(c *CellSpec) {
	if len(c.ExtraSources) > 0 || len(c.Crashes) > 0 || len(c.Churn) > 0 ||
		len(c.CoverageFracs) > 0 || len(c.Params) > 0 {
		w.ok = false
		return
	}
	w.raw("{")
	w.optStr(`"kind":`, c.Kind)
	w.optStr(`"family":`, c.Family)
	if c.N != 0 {
		w.raw(`"n":`)
		w.int(c.N)
		w.raw(",")
	}
	w.optStr(`"protocol":`, c.Protocol)
	w.optStr(`"timing":`, c.Timing)
	w.optStr(`"view":`, c.View)
	w.optStr(`"variant":`, c.Variant)
	if c.Quasirandom {
		w.raw(`"quasirandom":true,`)
	}
	if c.LossProb != 0 {
		w.raw(`"loss_prob":`)
		w.float(c.LossProb)
		w.raw(",")
	}
	w.raw(`"trials":`)
	w.int(c.Trials)
	w.raw(`,"graph_seed":`)
	w.b = strconv.AppendUint(w.b, c.GraphSeed, 10)
	w.raw(`,"trial_seed":`)
	w.b = strconv.AppendUint(w.b, c.TrialSeed, 10)
	w.raw(`,"source":`)
	w.int(c.Source)
	if c.Dynamic != "" {
		w.raw(`,"dynamic":`)
		w.str(c.Dynamic)
	}
	if c.DynamicPeriod != 0 {
		w.raw(`,"dynamic_period":`)
		w.float(c.DynamicPeriod)
	}
	if c.PerturbRate != 0 {
		w.raw(`,"perturb_rate":`)
		w.float(c.PerturbRate)
	}
	w.raw("}")
}

// int writes v if jsonlayout.CutInt reads it back: at most 18 digits.
func (w *resultWriter) int(v int) {
	if v < -maxLayoutInt || v > maxLayoutInt {
		w.ok = false
		return
	}
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

// maxLayoutInt is the largest integer of 18 digits.
const maxLayoutInt = 999_999_999_999_999_999

func (w *resultWriter) str(s string) {
	w.ok = w.ok && jsonlayout.Plain(s)
	w.b = append(append(append(w.b, '"'), s...), '"')
}

// optStr writes an omitempty string field of the cell and its comma.
func (w *resultWriter) optStr(key, s string) {
	if s != "" {
		w.raw(key)
		w.str(s)
		w.raw(",")
	}
}

func (w *resultWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.ok = false
		return
	}
	w.b = jsonlayout.AppendFloat(w.b, f)
}

// DecodeResult sets *r to the result b encodes, as json.Unmarshal into
// a zero CellResult does, and returns json.Unmarshal's error if any. A
// result in the pinned layout appendResult writes (with any index, and
// any JSON number for a float) is parsed in place; anything else is
// decoded by json.Unmarshal.
func DecodeResult(b []byte, r *CellResult) error {
	*r = CellResult{}
	if parseResult(b, r) {
		return nil
	}
	*r = CellResult{}
	return json.Unmarshal(b, r)
}

// parseResult reads b into the zero result r and reports whether all of
// b is in the pinned layout. On false, r holds whatever it read.
func parseResult(b []byte, r *CellResult) bool {
	p := resultReader{rest: b, ok: true}
	p.lit(`{"index":`)
	r.Index = p.int()
	p.lit(`,"cell":`)
	p.cell(&r.Cell)
	p.lit(`,"key":"`)
	r.Key = p.str()
	if p.opt(`,"graph":"`) {
		r.Graph = p.str()
	}
	p.lit(`,"n":`)
	r.N = p.int()
	p.lit(`,"m":`)
	r.M = p.int()
	p.lit(`,"times":[`)
	r.Times = p.floats()
	s := &r.Summary
	p.lit(`,"summary":{"N":`)
	s.N = p.int()
	for _, f := range [...]struct {
		key string
		v   *float64
	}{
		{`,"Mean":`, &s.Mean}, {`,"Variance":`, &s.Variance}, {`,"StdDev":`, &s.StdDev},
		{`,"Min":`, &s.Min}, {`,"Max":`, &s.Max}, {`,"Median":`, &s.Median},
		{`,"Q25":`, &s.Q25}, {`,"Q75":`, &s.Q75},
	} {
		p.lit(f.key)
		*f.v = p.float()
	}
	p.lit("}")
	if p.opt(`,"coverage":{`) {
		r.Coverage = p.coverage()
	}
	p.lit("}")
	return p.ok && len(p.rest) == 0
}

// resultReader reads the pinned layout from rest; ok turns false at the
// first byte that leaves it, after which every read is a no-op that
// returns a zero value.
type resultReader struct {
	rest []byte
	ok   bool
}

// cell reads a cell's object into the zero spec c.
func (p *resultReader) cell(c *CellSpec) {
	p.lit("{")
	c.Kind = p.optName(`"kind":"`)
	c.Family = p.optName(`"family":"`)
	if p.opt(`"n":`) {
		c.N = p.int()
		p.lit(",")
	}
	c.Protocol = p.optName(`"protocol":"`)
	c.Timing = p.optName(`"timing":"`)
	c.View = p.optName(`"view":"`)
	c.Variant = p.optName(`"variant":"`)
	c.Quasirandom = p.opt(`"quasirandom":true,`)
	if p.opt(`"loss_prob":`) {
		c.LossProb = p.float()
		p.lit(",")
	}
	p.lit(`"trials":`)
	c.Trials = p.int()
	p.lit(`,"graph_seed":`)
	c.GraphSeed = p.uint()
	p.lit(`,"trial_seed":`)
	c.TrialSeed = p.uint()
	p.lit(`,"source":`)
	c.Source = p.int()
	if p.opt(`,"dynamic":"`) {
		c.Dynamic = p.name()
	}
	if p.opt(`,"dynamic_period":`) {
		c.DynamicPeriod = p.float()
	}
	if p.opt(`,"perturb_rate":`) {
		c.PerturbRate = p.float()
	}
	p.lit("}")
}

// lit consumes s, which must come next.
func (p *resultReader) lit(s string) {
	if !p.opt(s) {
		p.ok = false
	}
}

// opt consumes s if it comes next and reports whether it did.
func (p *resultReader) opt(s string) bool {
	if !p.ok || len(p.rest) < len(s) || string(p.rest[:len(s)]) != s {
		return false
	}
	p.rest = p.rest[len(s):]
	return true
}

// str reads a plain string's contents and its closing quote.
func (p *resultReader) str() string { return string(p.strBytes()) }

// name is str for a cell's names: a known name comes from knownNames
// instead of being copied.
func (p *resultReader) name() string { return intern(p.strBytes()) }

// strBytes reads a plain string's contents, which it returns in place,
// and its closing quote.
func (p *resultReader) strBytes() []byte {
	if !p.ok {
		return nil
	}
	s, rest, ok := jsonlayout.CutString(p.rest, `"`)
	p.rest, p.ok = rest, ok
	return s
}

// optName reads an omitempty name field of the cell, key being its name
// up to the opening quote of its value, and its comma.
func (p *resultReader) optName(key string) string {
	if !p.opt(key) {
		return ""
	}
	s := p.name()
	p.lit(",")
	return s
}

// knownNames holds the names that cells and results repeat: the
// canonical kind, timing, protocol, view, variant and dynamic names
// Validate accepts, the standard families, and the coverage names of
// the default milestones. It is built at init and only read after, so
// no input can grow it.
var knownNames = func() map[string]string {
	names := []string{KindTime, TimingSync, TimingAsync, DynamicResample, DynamicPerturb}
	for _, p := range []core.Protocol{core.Push, core.Pull, core.PushPull} {
		names = append(names, p.String())
	}
	for _, v := range []core.AsyncView{core.GlobalClock, core.PerNodeClocks, core.PerEdgeClocks} {
		names = append(names, v.String())
	}
	for _, v := range []core.PPVariant{core.PPX, core.PPY} {
		names = append(names, v.String())
	}
	names = append(names, harness.FamilyNames()...)
	for _, f := range defaultCoverage {
		names = append(names, string(appendCoverageName(nil, f)))
	}
	m := make(map[string]string, len(names))
	for _, s := range names {
		m[s] = s
	}
	return m
}()

// intern returns the known name b spells, or else a copy of b. The
// lookup on string(b) does not allocate.
func intern(b []byte) string {
	if s, ok := knownNames[string(b)]; ok {
		return s
	}
	return string(b)
}

func (p *resultReader) int() int {
	if !p.ok {
		return 0
	}
	v, rest, ok := jsonlayout.CutInt(p.rest)
	p.rest, p.ok = rest, ok && v == int64(int(v))
	return int(v)
}

func (p *resultReader) uint() uint64 {
	if !p.ok {
		return 0
	}
	v, rest, ok := jsonlayout.CutUint(p.rest)
	p.rest, p.ok = rest, ok
	return v
}

func (p *resultReader) float() float64 {
	if !p.ok {
		return 0
	}
	v, rest, ok := jsonlayout.CutFloat(p.rest)
	p.rest, p.ok = rest, ok
	return v
}

// floats reads the elements of an array and its closing bracket. An
// empty array is an empty, non-nil slice, as json.Unmarshal makes it.
func (p *resultReader) floats() []float64 {
	if !p.ok {
		return nil
	}
	n := 0
	if end := bytes.IndexByte(p.rest, ']'); end > 0 {
		n = min(bytes.Count(p.rest[:end], []byte{','})+1, (end+1)/2)
	}
	vs := make([]float64, 0, n)
	if p.opt("]") {
		return vs
	}
	for p.ok {
		vs = append(vs, p.float())
		if p.opt("]") {
			break
		}
		p.lit(",")
	}
	return vs
}

// coverage reads the members of a non-empty object of numbers, keys in
// strictly ascending order, and its closing brace.
func (p *resultReader) coverage() map[string]float64 {
	m := make(map[string]float64, 4)
	var prev []byte
	for i := 0; p.ok; i++ {
		p.lit(`"`)
		k, rest, ok := jsonlayout.CutString(p.rest, `":`)
		if !p.ok || !ok || i > 0 && bytes.Compare(prev, k) >= 0 {
			p.ok = false
			return nil
		}
		p.rest, prev = rest, k
		m[intern(k)] = p.float()
		if p.opt("}") {
			break
		}
		p.lit(",")
	}
	return m
}
