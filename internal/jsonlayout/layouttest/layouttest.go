// Package layouttest checks the contract every pinned-layout codec
// keeps (see internal/jsonlayout): a codec that reads a fixed JSON
// layout in place, and may write it, answers as the encoding/json codec
// it replaced, kept verbatim as its oracle. A Codec describes one codec
// once, and three methods check the contract:
//
//   - Reads: on any bytes, the full decode gives the oracle's verdict
//     and a value equal to the oracle's;
//   - Writes: the writer writes the oracle encoder's bytes, or declines
//     without touching its buffer;
//   - Allocates: on an adversarial input b, the full decode allocates
//     at most c·len(b) + k bytes, c and k the codec's own.
//
// Allocation is read from runtime.MemStats.TotalAlloc, which counts
// every goroutine, so call Allocates from tests that do not run in
// parallel, with inputs or a slack large enough that what other
// goroutines allocate meanwhile does not count. Under the race
// detector, which inflates allocation, it checks nothing.
package layouttest

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
)

// TB is the part of testing.TB the checks report through.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Codec describes a pinned-layout codec of values of type T. Where
// codecs differ, the description says so: in Same, in Layout, or by
// leaving out InPlace or Append.
type Codec[T any] struct {
	// Decode is the full decode: the in-place reader and its fallback.
	// It decodes into Dirty's value.
	Decode func(b []byte, v *T) error
	// Oracle is the decoder Decode replaced. It decodes into the zero T.
	Oracle func(b []byte, v *T) error
	// Dirty returns a value with every field Same compares set; nil
	// means the zero T.
	Dirty func() T
	// Same reports whether Decode's value and error match the oracle's,
	// given that both verdicts agree; nil means the same error text and
	// reflect.DeepEqual values.
	Same func(got, want T, err, werr error) bool

	// InPlace is the in-place reader, which reports whether it took
	// all of b; nil where no layout rule says which bytes it takes.
	InPlace func(b []byte, v *T) bool
	// Append is the writer, nil for a codec without one: it appends v's
	// encoding to b and reports true, or declines and returns b as it
	// was.
	Append func(b []byte, v *T) ([]byte, bool)
	// Encode is the oracle encoder.
	Encode func(v *T) ([]byte, error)
	// Layout reports whether v is in the pinned layout. Append declines
	// exactly the values outside it and those Encode fails on, and
	// InPlace takes Encode's bytes exactly for the values in it. Nil
	// means every value: the writer falls back to encoding/json inside
	// instead of declining.
	Layout func(v *T) bool
}

// Reads checks b: Decode, from Dirty's value, and Oracle, from the zero
// T, give the same verdict and values Same holds equal. Before that it
// checks that Same tells Dirty's value from itself with any one set
// field zeroed.
func (c Codec[T]) Reads(t TB, b []byte) {
	t.Helper()
	if field := c.ignoredField(); field != "" {
		t.Fatalf("the equality ignores %s", field)
	}
	got, want := c.dirty(), *new(T)
	err, werr := c.Decode(b, &got), c.Oracle(b, &want)
	if (err == nil) != (werr == nil) || !c.same(got, want, err, werr) {
		t.Fatalf("Decode(%q) = %+v, %v\nthe oracle gives %+v, %v", b, got, err, want, werr)
	}
}

// Writes checks v's encoding. Decode reads Encode's bytes as Reads
// requires, and InPlace takes them exactly when v is in the layout.
// Where Encode succeeds and v is in the layout, Append writes Encode's
// bytes after its buffer's; it declines everything else, leaving the
// buffer as it was.
func (c Codec[T]) Writes(t TB, v *T) {
	t.Helper()
	want, werr := c.Encode(v)
	in := werr == nil && (c.Layout == nil || c.Layout(v))
	if werr == nil {
		c.Reads(t, want)
		if c.InPlace != nil && c.InPlace(want, new(T)) != in {
			t.Fatalf("the in-place reader's verdict on %s is %v, want %v", want, !in, in)
		}
	}
	if c.Append == nil {
		return
	}
	const prefix = "prefix"
	buf := []byte(prefix)
	out, ok := c.Append(buf, v)
	switch {
	case string(buf) != prefix || !bytes.HasPrefix(out, buf) || !ok && len(out) != len(buf):
		t.Fatalf("the writer changed its buffer to %q, ok %v", out, ok)
	case ok != in:
		t.Fatalf("the writer's verdict on %+v is %v, want %v (the oracle: %v)", *v, ok, in, werr)
	case ok && !bytes.Equal(out[len(buf):], want):
		t.Fatalf("the writer writes\n%s\nthe oracle\n%s", out[len(buf):], want)
	}
}

// Allocates checks that Decode, from Dirty's value, allocates at most
// perByte·len(b) + slack bytes on b.
func (c Codec[T]) Allocates(t TB, b []byte, perByte, slack uint64) {
	t.Helper()
	v := c.dirty()
	if alloc, bound := Allocated(func() { _ = c.Decode(b, &v) }), perByte*uint64(len(b))+slack; alloc > bound {
		t.Fatalf("Decode of %d bytes allocated %d bytes, over %d", len(b), alloc, bound)
	}
}

// Allocated returns the bytes f allocates, or 0 under the race
// detector.
func Allocated(f func()) uint64 {
	if raceEnabled {
		f()
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func (c Codec[T]) dirty() T {
	if c.Dirty == nil {
		return *new(T)
	}
	return c.Dirty()
}

func (c Codec[T]) same(got, want T, err, werr error) bool {
	if c.Same == nil {
		return fmt.Sprint(err) == fmt.Sprint(werr) && reflect.DeepEqual(got, want)
	}
	return c.Same(got, want, err, werr)
}

// ignoredField returns the name of a field that is set in Dirty's
// value but that Same does not compare, or "".
func (c Codec[T]) ignoredField() string {
	d := c.dirty()
	dv := reflect.ValueOf(&d).Elem()
	if dv.Kind() != reflect.Struct {
		return ""
	}
	for i := range dv.NumField() {
		if !dv.Field(i).CanSet() || dv.Field(i).IsZero() {
			continue
		}
		e := c.dirty()
		reflect.ValueOf(&e).Elem().Field(i).SetZero()
		if c.same(e, d, nil, nil) {
			return dv.Type().Field(i).Name
		}
	}
	return ""
}

// Shapes returns the adversarial inputs an allocation bound is held
// to: head, then n bytes of one shape, then tail. The shapes are
// repeated separators, deep nesting, a long number and a long string.
func Shapes(head, tail string, n int) [][]byte {
	var inputs [][]byte
	for _, shape := range []string{strings.Repeat(",", n), strings.Repeat("[", n), strings.Repeat("9", n), `"` + strings.Repeat("a", n-2) + `"`} {
		inputs = append(inputs, []byte(head+shape+tail))
	}
	return inputs
}

// Mutate returns a copy of b with c set at i (op 0), inserted at i
// (op 1), b[i] deleted (op 2), or b cut at i (op 3), op taken modulo 4;
// i is below len(b).
func Mutate(b []byte, i int, c byte, op uint8) []byte {
	m := append([]byte(nil), b[:i]...)
	switch op % 4 {
	case 0:
		return append(append(m, c), b[i+1:]...)
	case 1:
		return append(append(m, c), b[i:]...)
	case 2:
		return append(m, b[i+1:]...)
	}
	return m
}
