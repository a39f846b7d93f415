package service_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"rumor/internal/jsonlayout/layouttest"
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

// jobBody is the job body codec behind a MaxBytesReader whose limit is
// short bytes below one past the body's length: io.ReadAll and
// DecodeJobBody, with parseJobBody in place, held to the old decoder
// over the same reader. It has no writer: the SDK sends json.Marshal's
// body.
func jobBody(short uint8) layouttest.Codec[service.JobSpec] {
	limit := func(b []byte) int64 { return max(int64(len(b))+1-int64(short), 0) }
	return layouttest.Codec[service.JobSpec]{
		Decode: func(b []byte, spec *service.JobSpec) error {
			read, readErr := io.ReadAll(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(b)), limit(b)))
			return service.DecodeJobBody(read, readErr, spec)
		},
		Oracle: func(b []byte, spec *service.JobSpec) error {
			return decodeJobBodyOracle(io.NopCloser(bytes.NewReader(b)), limit(b), spec)
		},
		Dirty: func() service.JobSpec {
			return service.JobSpec{Families: []string{"stale"}, Priority: 9, CellList: []service.CellSpec{{N: 1}}}
		},
		InPlace: service.ParseJobBody,
		Encode:  func(spec *service.JobSpec) ([]byte, error) { return json.Marshal(spec) },
		Layout:  jobInLayout,
	}
}

// FuzzJobBody holds the job body codec to the oracle on arbitrary bytes
// behind a limit above, at or below their length, and on a JobSpec
// decoded from those bytes and changed by fuzzed edits to its first
// cell.
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
		jobBody(short).Reads(t, b)

		var spec service.JobSpec
		_ = json.Unmarshal(b, &spec) // a realistic start when b is a body
		if len(spec.CellList) > 0 {
			r := service.CellResult{Cell: spec.CellList[0]}
			applyEdits(&r, edits)
			spec.CellList[0] = r.Cell
		}
		jobBody(1).Writes(t, &spec)
	})
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
// list costs no more than the old decoder spends on it; and a cell list
// that is a long run of one shape goes to the old decoder, which holds
// the body a second time.
func TestJobBodyAllocation(t *testing.T) {
	body := jobBody(1)
	bogus := []byte(`{"cells":[` + strings.Repeat(`},{`, 1<<18))
	body.Allocates(t, bogus, 8, 0)

	cell := `{"trials":1,"graph_seed":1,"trial_seed":1,"source":0}`
	cells := []byte(`{"cells":[` + strings.Repeat(cell+`,`, 1<<14) + cell + `]}`)
	var spec service.JobSpec
	if !service.ParseJobBody(cells, &spec) || len(spec.CellList) != 1<<14+1 {
		t.Fatalf("the reader declines a list of %d minimal cells", 1<<14+1)
	}
	old := layouttest.Allocated(func() { _ = body.Oracle(cells, new(service.JobSpec)) })
	body.Allocates(t, cells, 0, old+old/4)

	for _, b := range layouttest.Shapes(`{"cells":[`, "]}", 1<<20) {
		body.Reads(t, b)
		body.Allocates(t, b, 16, 4<<10)
	}
}
