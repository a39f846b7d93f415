package service_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"rumor/internal/service"
)

// decodeJobBodyOracle is how POST /v1/jobs decoded every body before
// the job body had a layout (api.DecodeRequest), kept verbatim but for
// the limit, which is a parameter here so that short limits can be
// fuzzed: a json.Decoder with DisallowUnknownFields over the body
// behind http.MaxBytesReader.
func decodeJobBodyOracle(body io.ReadCloser, limit int64, v interface{}) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, body, limit))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// FuzzJobBody holds the job body reader to encoding/json.
//
//   - On arbitrary bytes behind a MaxBytesReader whose limit is above,
//     at or below their length, io.ReadAll and then DecodeJobBody, into
//     a dirty spec, return the oracle's error text and a spec
//     reflect.DeepEqual to the oracle's.
//   - On a JobSpec decoded from those bytes and changed by fuzzed edits
//     to its first cell, the reader takes json.Marshal's bytes, the body
//     the SDK sends, exactly when the spec is in the layout, and decodes
//     them as the oracle does.
func FuzzJobBody(f *testing.F) {
	sdk, err := json.Marshal(service.JobSpec{CellList: service.SDKJobCells()})
	if err != nil {
		f.Fatal(err)
	}
	// The SDK's body runs through the fast path.
	var spec service.JobSpec
	if !service.ParseJobBody(sdk, &spec) {
		f.Fatalf("the reader declines the SDK's body %s", sdk)
	}
	body := string(sdk)
	indented, _ := json.MarshalIndent(service.JobSpec{CellList: service.SDKJobCells()}, "", "  ")
	cell := `{"kind":"time","family":"hypercube","n":64,"protocol":"push","timing":"async","view":"per-edge-clocks",` +
		`"variant":"ppx","quasirandom":true,"loss_prob":0.25,"trials":2,"graph_seed":18446744073709551615,` +
		`"trial_seed":0,"source":-3,"dynamic":"perturb","dynamic_period":1e-7,"perturb_rate":0.5}`
	for _, b := range []string{
		body,
		strings.Replace(body, `]}`, `],"priority":-7}`, 1),
		string(indented),
		`{"cells":[` + cell + `]}`,
		`{"cells":[` + cell + `,` + cell + `],"priority":0}`,
		`{"families":["complete"],"cells":[` + cell + `]}`, `{"sizes":[8],"cells":[` + cell + `]}`,
		`{"protocols":["push"],"cells":[` + cell + `]}`, `{"timings":["sync"],"cells":[` + cell + `]}`,
		`{"trials":2,"cells":[` + cell + `]}`, `{"seed":5,"cells":[` + cell + `]}`, `{"source":1,"cells":[` + cell + `]}`,
		`{"families":["complete","hypercube"],"sizes":[16],"protocols":["push"],"timings":["sync","async"],"trials":2,"seed":5}`,
		`{"cells":[{"trials":1,"graph_seed":1,"trial_seed":1,"source":0,"extra_sources":[2],"coverage_fracs":[0.5]}]}`,
		strings.Replace(body, `{"cells":`, `{"bogus":1,"cells":`, 1),
		strings.Replace(body, `"trials":2,`, `"bogus":1,"trials":2,`, 1),
		strings.Replace(body, `"cells"`, `"Cells"`, 1),
		strings.Replace(body, `"n":64`, `"n":64.0`, 1),
		strings.Replace(body, `"n":64`, `"n":1234567890123456789`, 1),
		strings.Replace(body, `"graph_seed":1`, `"graph_seed":1,"graph_seed":2`, 1),
		strings.Replace(body, `"hypercube"`, `"hyperc\u0075be"`, 1),
		strings.Replace(body, `"trials":2,`, `"quasirandom":false,"trials":2,`, 1),
		body + `}garbage`, body + " ", " " + body,
		`{"cells":[]}`, `{"cells":null}`, `{"cells":[{}]}`, `{}`, `null`, ``, `[`, `{"cells":[{"n":64,`,
	} {
		f.Add([]byte(b), uint8(0), []byte{})
	}
	f.Add(sdk, uint8(1), []byte{})
	f.Add(sdk, uint8(2), []byte{})
	f.Add(sdk, uint8(40), []byte{})
	f.Add([]byte(body+"    "), uint8(3), []byte{})
	// Edits to the first cell: a non-plain family, a NaN loss, a large
	// count of trials, and each cell field the layout declines.
	f.Add(sdk, uint8(0), []byte{1, 3, 'a', '<', 'b'})
	f.Add(sdk, uint8(0), append([]byte{10}, binary.LittleEndian.AppendUint64(nil, 0x7ff8000000000001)...))
	f.Add(sdk, uint8(0), append([]byte{18}, binary.LittleEndian.AppendUint64(nil, 1<<62)...))
	f.Add(sdk, uint8(0), []byte{25})
	f.Add(sdk, uint8(0), []byte{26, 27, 28, 29})
	// Each known name and near misses of them in every name field of
	// the first cell.
	for _, name := range seedNames() {
		f.Add(sdk, uint8(0), nameEdits(name))
	}

	f.Fuzz(func(t *testing.T, b []byte, short uint8, edits []byte) {
		limit := max(int64(len(b))+1-int64(short), 0)
		checkDecodeJobBody(t, b, limit)

		var spec service.JobSpec
		_ = json.Unmarshal(b, &spec) // a realistic start when b is a body
		if len(spec.CellList) > 0 {
			r := service.CellResult{Cell: spec.CellList[0]}
			applyEdits(&r, edits)
			spec.CellList[0] = r.Cell
		}
		checkMarshalledJobBody(t, &spec)
	})
}

// checkDecodeJobBody reads b behind a MaxBytesReader of limit with
// io.ReadAll and decodes it with DecodeJobBody, into a dirty spec, and
// compares that with the oracle's decode of the same reader.
func checkDecodeJobBody(t *testing.T, b []byte, limit int64) {
	t.Helper()
	got := service.JobSpec{Families: []string{"stale"}, Priority: 9, CellList: []service.CellSpec{{N: 1}}}
	read, readErr := io.ReadAll(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(b)), limit))
	gotErr := service.DecodeJobBody(read, readErr, &got)
	var want service.JobSpec
	wantErr := decodeJobBodyOracle(io.NopCloser(bytes.NewReader(b)), limit, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("limit %d: DecodeJobBody(%q) = %+v, %v\nthe oracle gives %+v, %v", limit, b, got, gotErr, want, wantErr)
	}
}

// checkMarshalledJobBody holds the reader to spec's json.Marshal bytes:
// it takes them in place exactly when spec is in the layout, and
// decodes them as the oracle does.
func checkMarshalledJobBody(t *testing.T, spec *service.JobSpec) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		return
	}
	var back service.JobSpec
	if ok := service.ParseJobBody(body, &back); ok != jobInLayout(spec) {
		t.Fatalf("the reader's verdict on %s is %v, want %v", body, ok, !ok)
	}
	checkDecodeJobBody(t, body, int64(len(body)))
}

// jobInLayout reports whether spec is a job the pinned body covers: a
// non-empty cell list, no grid field, every cell in the
// result layout's cell object and a priority of at most 18 digits.
func jobInLayout(spec *service.JobSpec) bool {
	if len(spec.CellList) == 0 || len(spec.Families) > 0 || len(spec.Sizes) > 0 || len(spec.Protocols) > 0 ||
		len(spec.Timings) > 0 || spec.Trials != 0 || spec.Seed != 0 || spec.Source != 0 {
		return false
	}
	for _, c := range spec.CellList {
		if !inLayout(&service.CellResult{Cell: c, Times: []float64{}}) {
			return false
		}
	}
	return len(strings.TrimPrefix(strconv.Itoa(spec.Priority), "-")) <= 18
}

// TestJobBodyAllocation holds what a submit allocates to what its body
// holds. A body that leaves the layout at its first cell, however many
// cell separators follow, costs a few times its length; a long cell
// list costs no more than the old decoder spends on it.
func TestJobBodyAllocation(t *testing.T) {
	allocated := func(body []byte, decode func([]byte)) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		decode(body)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	decode := func(body []byte) {
		read, readErr := io.ReadAll(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), int64(len(body))))
		var spec service.JobSpec
		_ = service.DecodeJobBody(read, readErr, &spec)
	}
	oracle := func(body []byte) {
		var spec service.JobSpec
		_ = decodeJobBodyOracle(io.NopCloser(bytes.NewReader(body)), int64(len(body)), &spec)
	}

	bogus := []byte(`{"cells":[` + strings.Repeat(`},{`, 1<<18))
	if got, bound := allocated(bogus, decode), 8*uint64(len(bogus)); got > bound {
		t.Errorf("a %d-byte body that leaves the layout at its first cell allocates %d bytes, want at most %d", len(bogus), got, bound)
	}

	cell := `{"trials":1,"graph_seed":1,"trial_seed":1,"source":0}`
	cells := []byte(`{"cells":[` + strings.Repeat(cell+`,`, 1<<14) + cell + `]}`)
	var spec service.JobSpec
	if !service.ParseJobBody(cells, &spec) || len(spec.CellList) != 1<<14+1 {
		t.Fatalf("the reader declines a list of %d minimal cells", 1<<14+1)
	}
	if got, old := allocated(cells, decode), allocated(cells, oracle); got > old+old/4 {
		t.Errorf("a list of %d minimal cells allocates %d bytes, the old decoder %d", 1<<14+1, got, old)
	}
}
