package service_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"rumor/internal/api"
	"rumor/internal/jsonlayout"
	"rumor/internal/service"
)

// FuzzResultCodec holds the result codec to encoding/json.
//
//   - On a CellResult built from a decoded row and fuzzed edits (strings
//     that are not plain, NaN and ±Inf, nil or empty Times, every
//     optional field), appendResult either declines, leaving its buffer's
//     contents as they were, or writes exactly json.Marshal's bytes,
//     which are api.EncodeRow's without the newline; it declines exactly
//     the results outside the layout, and the reader takes back what it
//     wrote.
//   - On arbitrary bytes, DecodeResult returns json.Unmarshal's error,
//     and its result is reflect.DeepEqual to what json.Unmarshal makes
//     of a zero CellResult, whatever *r held before.
func FuzzResultCodec(f *testing.F) {
	// The writer takes exactly the golden cells without a schedule or
	// coverage fractions, so the golden rows run through the fast paths.
	for _, tc := range rowsGoldenCells() {
		res, _, err := (&service.Executor{TrialWorkers: 1}).Run(context.Background(), 7, tc.cell)
		if err != nil {
			f.Fatal(err)
		}
		c := tc.cell
		plain := len(c.ExtraSources) == 0 && len(c.Crashes) == 0 && len(c.Churn) == 0 && len(c.CoverageFracs) == 0
		if _, ok := service.AppendResult(nil, res); ok != plain {
			f.Errorf("%s: appendResult ok = %v, want %v", tc.name, ok, plain)
		}
		row, err := api.Marshal(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(row, []byte{})
	}
	const small = `{"index":3,"cell":{"family":"hypercube","n":64,"protocol":"push-pull","timing":"async","trials":2,` +
		`"graph_seed":1,"trial_seed":16045690984503098381,"source":0},"key":"v2|k","graph":"hypercube(6)","n":64,"m":192,` +
		`"times":[4.25,5.5],"summary":{"N":2,"Mean":4.875,"Variance":0.78125,"StdDev":0.88,"Min":4.25,"Max":5.5,` +
		`"Median":4.875,"Q25":4.5625,"Q75":5.1875},"coverage":{"q100":4.875,"q50":2,"q90":3.5}}`
	for _, row := range []string{
		small,
		`{"index":0,"cell":{"trials":1,"graph_seed":18446744073709551615,"trial_seed":0,"source":-1},"key":"","n":0,"m":0,` +
			`"times":[],"summary":{"N":0,"Mean":0,"Variance":0,"StdDev":0,"Min":0,"Max":0,"Median":0,"Q25":0,"Q75":0}}`,
		`{"index":0,"cell":{"trials":1,"graph_seed":1,"trial_seed":1,"source":0},"key":"k","n":1,"m":0,"times":[1e-7,1E+21,-0],` +
			`"summary":{"N":0,"Mean":0,"Variance":0,"StdDev":0,"Min":0,"Max":0,"Median":0,"Q25":0,"Q75":0},"coverage":{}}`,
		`{"index":1,"cell":{"family":"a<b&c","trials":1,"graph_seed":1,"trial_seed":1,"source":0},"key":"k","n":1,"m":0,"times":[1],` +
			`"summary":{"N":1,"Mean":1,"Variance":0,"StdDev":0,"Min":1,"Max":1,"Median":1,"Q25":1,"Q75":1}}`,
		`{"index":1,"cell":{"family":"a<b","trials":1,"graph_seed":1,"trial_seed":1,"source":0},"key":"k","n":1,"m":0,"times":[1e400],` +
			`"summary":{"N":1,"Mean":1,"Variance":0,"StdDev":0,"Min":1,"Max":1,"Median":1,"Q25":1,"Q75":1}}`,
		`{"index":2,"times":null,"coverage":{"q50":1,"q50":2}} `, `{"index":-0}`, `{"INDEX":1}`, `null`, `[]`, ``,
	} {
		f.Add([]byte(row), []byte{})
	}
	// Edits: a non-plain family, a NaN time, nil and empty Times, and
	// each optional field in turn.
	f.Add([]byte(small), []byte{1, 3, 'a', '<', 'b'})
	f.Add([]byte(small), append([]byte{13}, binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))...))
	f.Add([]byte(small), []byte{22})
	f.Add([]byte(small), []byte{23, 32})
	f.Add([]byte(small), []byte{25, 26, 27, 28, 29, 30, 31})
	f.Add([]byte(small), append([]byte{20}, binary.LittleEndian.AppendUint64(nil, math.MaxUint64)...))
	// Each known name and near misses of them in every name field and
	// as a coverage key: the reader's shared strings must equal the
	// copies json.Unmarshal makes.
	for _, name := range seedNames() {
		edits := append(nameEdits(name), 9, byte(len(name)))
		edits = append(append(edits, name...), binary.LittleEndian.AppendUint64(nil, math.Float64bits(2.5))...)
		f.Add([]byte(small), edits)
	}

	f.Fuzz(func(t *testing.T, row, edits []byte) {
		checkDecodeResult(t, row)

		var r service.CellResult
		_ = json.Unmarshal(row, &r) // a realistic start when row is one
		applyEdits(&r, edits)
		checkAppendResult(t, &r)
	})
}

// checkDecodeResult decodes b with DecodeResult, into a dirty result,
// and with json.Unmarshal, into a zero one, and compares the two.
func checkDecodeResult(t *testing.T, b []byte) {
	t.Helper()
	got := service.CellResult{Index: 9, Key: "stale", Times: []float64{1}, Coverage: map[string]float64{"q1": 1}}
	gotErr := service.DecodeResult(b, &got)
	var want service.CellResult
	wantErr := json.Unmarshal(b, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeResult(%q) = %+v, %v\njson.Unmarshal gives %+v, %v", b, got, gotErr, want, wantErr)
	}
}

// checkAppendResult holds appendResult on r to json.Marshal and
// api.EncodeRow, and its output to the reader.
func checkAppendResult(t *testing.T, r *service.CellResult) {
	t.Helper()
	prefix := []byte("prefix")
	out, ok := service.AppendResult(prefix, r)
	if !bytes.HasPrefix(out, []byte("prefix")) {
		t.Fatalf("appendResult overwrote its buffer: %q", out)
	}
	marshalled, err := json.Marshal(r)
	var row bytes.Buffer
	rowErr := api.EncodeRow(&row, r)
	if covered := err == nil && inLayout(r); ok != covered {
		t.Fatalf("appendResult(%+v) ok = %v, want %v (json.Marshal: %v)", r, ok, covered, err)
	}
	if !ok {
		if len(out) != len(prefix) {
			t.Fatalf("appendResult declined but wrote %q", out[len(prefix):])
		}
		return
	}
	enc := out[len(prefix):]
	if !bytes.Equal(enc, marshalled) || rowErr != nil || !bytes.Equal(append(enc, '\n'), row.Bytes()) {
		t.Fatalf("appendResult writes\n%s\njson.Marshal writes\n%s\napi.EncodeRow writes\n%s (%v)", enc, marshalled, row.Bytes(), rowErr)
	}
	var back service.CellResult
	if !service.ParseResult(enc, &back) {
		t.Fatalf("the reader declines the writer's %s", enc)
	}
	checkDecodeResult(t, enc)
}

// inLayout reports whether r is a result the pinned layout covers,
// floats aside: Times set, no schedule, coverage fractions, params,
// series or values, every string plain and every integer of at most
// 18 digits.
func inLayout(r *service.CellResult) bool {
	c := &r.Cell
	if r.Times == nil || len(c.ExtraSources) > 0 || len(c.Crashes) > 0 || len(c.Churn) > 0 ||
		len(c.CoverageFracs) > 0 || len(c.Params) > 0 || len(r.Series) > 0 || len(r.Values) > 0 {
		return false
	}
	for _, s := range []string{c.Kind, c.Family, c.Protocol, c.Timing, c.View, c.Variant, c.Dynamic, r.Key, r.Graph} {
		if !jsonlayout.Plain(s) {
			return false
		}
	}
	for k := range r.Coverage {
		if !jsonlayout.Plain(k) {
			return false
		}
	}
	for _, v := range []int{r.Index, c.N, c.Trials, c.Source, r.N, r.M, r.Summary.N} {
		if digits := strings.TrimPrefix(strconv.Itoa(v), "-"); len(digits) > 18 {
			return false
		}
	}
	return true
}

// seedNames is every name the result reader knows and near misses of
// them: another case, a byte short, a trailing space, an alias Validate
// accepts but the table does not hold, and non-ASCII.
func seedNames() []string {
	return append(service.KnownNames(), "Push", "push-pul", "q100 ", "q5", "pushpull", "", "hypercübe", "q１００")
}

// nameEdits is the edits that set each name field of the cell (kind,
// family, protocol, timing, view, variant, dynamic) to name.
func nameEdits(name string) []byte {
	var edits []byte
	for op := byte(0); op <= 6; op++ {
		edits = append(append(edits, op, byte(len(name))), name...)
	}
	return edits
}

// applyEdits changes r as edits says: each edit is an opcode byte,
// then the bytes of its value (a string is a length byte and that many
// bytes, a number eight little-endian bytes).
func applyEdits(r *service.CellResult, edits []byte) {
	c := &r.Cell
	str := func() string {
		if len(edits) == 0 {
			return ""
		}
		n := min(int(edits[0]), len(edits)-1)
		s := string(edits[1 : 1+n])
		edits = edits[1+n:]
		return s
	}
	word := func() uint64 {
		var buf [8]byte
		edits = edits[copy(buf[:], edits):]
		return binary.LittleEndian.Uint64(buf[:])
	}
	float := func() float64 { return math.Float64frombits(word()) }
	for len(edits) > 0 {
		op := edits[0]
		edits = edits[1:]
		switch op {
		case 0:
			c.Kind = str()
		case 1:
			c.Family = str()
		case 2:
			c.Protocol = str()
		case 3:
			c.Timing = str()
		case 4:
			c.View = str()
		case 5:
			c.Variant = str()
		case 6:
			c.Dynamic = str()
		case 7:
			r.Key = str()
		case 8:
			r.Graph = str()
		case 9:
			if r.Coverage == nil {
				r.Coverage = map[string]float64{}
			}
			k := str()
			r.Coverage[k] = float()
		case 10:
			c.LossProb = float()
		case 11:
			c.DynamicPeriod = float()
		case 12:
			c.PerturbRate = float()
		case 13:
			r.Times = append(r.Times, float())
		case 14:
			s := &r.Summary
			fields := [...]*float64{&s.Mean, &s.Variance, &s.StdDev, &s.Min, &s.Max, &s.Median, &s.Q25, &s.Q75}
			*fields[word()%uint64(len(fields))] = float()
		case 15:
			r.N = int(word())
		case 16:
			c.N = int(word())
		case 17:
			r.Index = int(word())
		case 18:
			c.Trials = int(word())
		case 19:
			c.Source = int(word())
		case 20:
			c.GraphSeed = word()
		case 21:
			c.TrialSeed = word()
		case 22:
			r.Times = nil
		case 23:
			r.Times = []float64{}
		case 24:
			c.Quasirandom = !c.Quasirandom
		case 25:
			c.ExtraSources = []int{1}
		case 26:
			c.Crashes = []service.CrashSpec{{Node: 1, Time: 1}}
		case 27:
			c.Churn = []service.ChurnSpec{{Node: 1, Time: 1, Op: service.ChurnOpLeave}}
		case 28:
			c.CoverageFracs = []float64{0.5}
		case 29:
			c.Params = map[string]float64{"p": 1}
		case 30:
			r.Series = map[string][]float64{"s": {1}}
		case 31:
			r.Values = map[string]float64{"v": 1}
		case 32:
			r.Coverage = map[string]float64{}
		case 33:
			r.M = int(word())
		case 34:
			r.Summary.N = int(word())
		}
	}
}
