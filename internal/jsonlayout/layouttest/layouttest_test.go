package layouttest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

type pair struct {
	A string
	B int
}

// toy is a codec of pairs that keeps the contract: its writer writes
// json.Marshal's bytes for an A of lowercase ASCII letters and declines
// any other pair, and its full decode is json.Unmarshal into a reset
// pair.
func toy() Codec[pair] {
	layout := func(v *pair) bool { return strings.Trim(v.A, "abcdefghijklmnopqrstuvwxyz") == "" }
	return Codec[pair]{
		Decode: func(b []byte, v *pair) error { *v = pair{}; return json.Unmarshal(b, v) },
		Oracle: func(b []byte, v *pair) error { return json.Unmarshal(b, v) },
		Dirty:  func() pair { return pair{A: "stale", B: 9} },
		Append: func(b []byte, v *pair) ([]byte, bool) {
			if !layout(v) {
				return b, false
			}
			return fmt.Appendf(b, `{"A":"%s","B":%d}`, v.A, v.B), true
		},
		Encode: func(v *pair) ([]byte, error) { return json.Marshal(v) },
		Layout: layout,
	}
}

// recorder is a TB that records whether a check failed.
type recorder struct{ failed bool }

func (r *recorder) Helper()               {}
func (r *recorder) Fatalf(string, ...any) { r.failed = true }

// sink keeps a mutant's allocation on the heap.
var sink []byte

// TestDriverHasTeeth: the toy codec passes every check, and each mutant
// of it fails one.
func TestDriverHasTeeth(t *testing.T) {
	long := []byte(`{"A":"` + strings.Repeat("a", 1<<16) + `","B":1}`)
	check := func(tb TB, c Codec[pair]) {
		tb.Helper()
		for _, b := range []string{`{"A":"x","B":1}`, `{"B":"1"}`, `[`, string(long)} {
			c.Reads(tb, []byte(b))
		}
		c.Allocates(tb, long, 4, 4<<10)
		c.Writes(tb, &pair{A: "x", B: 1})
		c.Writes(tb, &pair{A: "a<b", B: 1})
	}
	check(t, toy())
	for _, row := range []struct {
		name     string
		mutate   func(c *Codec[pair])
		allocate bool
	}{
		{name: "a reader that misreads one byte", mutate: func(c *Codec[pair]) {
			decode := c.Decode
			c.Decode = func(b []byte, v *pair) error { return decode(bytes.Replace(b, []byte("1"), []byte("2"), 1), v) }
		}},
		{name: "a writer that writes into its buffer when it declines", mutate: func(c *Codec[pair]) {
			write := c.Append
			c.Append = func(b []byte, v *pair) ([]byte, bool) {
				out, ok := write(b, v)
				if !ok {
					out = append(out, '}')
				}
				return out, ok
			}
		}},
		{name: "a writer that declines a pair in the layout", mutate: func(c *Codec[pair]) {
			c.Append = func(b []byte, v *pair) ([]byte, bool) { return b, false }
		}},
		{name: "a writer that writes a byte the oracle does not", mutate: func(c *Codec[pair]) {
			write := c.Append
			c.Append = func(b []byte, v *pair) ([]byte, bool) {
				out, ok := write(b, v)
				if ok {
					out = append(out, ' ')
				}
				return out, ok
			}
		}},
		{name: "a reader that allocates 16 bytes per input byte", allocate: true, mutate: func(c *Codec[pair]) {
			decode := c.Decode
			c.Decode = func(b []byte, v *pair) error { sink = make([]byte, 16*len(b)); return decode(b, v) }
		}},
		{name: "an equality that ignores a field", mutate: func(c *Codec[pair]) {
			c.Same = func(got, want pair, err, werr error) bool { return got.A == want.A && (err == nil) == (werr == nil) }
		}},
	} {
		if row.allocate && raceEnabled {
			continue
		}
		c := toy()
		row.mutate(&c)
		var r recorder
		if check(&r, c); !r.failed {
			t.Errorf("%s passes the driver", row.name)
		}
	}
}
