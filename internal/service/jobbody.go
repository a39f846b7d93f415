package service

import (
	"bytes"
	"encoding/json"
	"io"
)

// The pinned job body. The SDK submits every job as an explicit cell
// list, and json.Marshal writes that as
//
//	{"cells":[C,…][,"priority":P]}
//
// with each C a cell object in the result codec's layout (see
// resultcodec.go). parseJobBody reads that body in place; any other
// body (a grid, unknown fields, whitespace, trailing bytes) goes through
// the json.Decoder with DisallowUnknownFields that used to read every
// body, fed the same bytes and read error, so its verdicts stay as they
// were. TestSubmitBodyVerdicts pins those verdicts and FuzzJobBody holds
// the reader to encoding/json.

// decodeJobBody sets *spec to what a json.Decoder with
// DisallowUnknownFields decodes into a zero JobSpec from a reader that
// yields b and then fails with readErr (io.EOF when nil), and returns
// that decoder's error. A body in the pinned layout is parsed in place:
// the decoder reads only the first value, so a value that ends within b
// is its verdict whatever the reader says after it.
func decodeJobBody(b []byte, readErr error, spec *JobSpec) error {
	*spec = JobSpec{}
	if parseJobBody(b, spec) {
		return nil
	}
	*spec = JobSpec{}
	if readErr == nil {
		readErr = io.EOF
	}
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(b), errReader{readErr}))
	dec.DisallowUnknownFields()
	return dec.Decode(spec)
}

// errReader is a reader that has nothing left but its error.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// parseJobBody reads b into the zero spec and reports whether all of b
// is a job body in the pinned layout. On false, spec holds whatever it
// read. The cell list grows by append, so what it allocates follows the
// cells read, never a count taken from bytes not yet read.
func parseJobBody(b []byte, spec *JobSpec) bool {
	p := resultReader{rest: b, ok: true}
	p.lit(`{"cells":[`)
	for p.ok {
		spec.CellList = append(spec.CellList, CellSpec{})
		p.cell(&spec.CellList[len(spec.CellList)-1])
		if p.opt("]") {
			break
		}
		p.lit(",")
	}
	if p.opt(`,"priority":`) {
		spec.Priority = p.int()
	}
	p.lit("}")
	return p.ok && len(p.rest) == 0
}
