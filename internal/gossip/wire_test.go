package gossip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

// writeCounter is a buffer that counts the Write calls it receives.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestFrameRoundTrip(t *testing.T) {
	env, err := NewEnvelope(MethodPush, 3, Rumor{Round: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf writeCounter
	if err := WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	// The wire format is pinned: nodes of different builds interoperate.
	const body = `{"method":"push","from":3,"payload":{"round":7}}`
	if want := "\x00\x00\x00" + string(rune(len(body))) + body; buf.String() != want || buf.writes != 1 {
		t.Fatalf("frame = %q in %d writes, want %q in 1", buf.String(), buf.writes, want)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != MethodPush || got.From != 3 {
		t.Fatalf("round-trip envelope = %+v", got)
	}
	var r Rumor
	if err := got.Decode(&r); err != nil {
		t.Fatal(err)
	}
	if r.Round != 7 {
		t.Fatalf("round = %d, want 7", r.Round)
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	env := &Envelope{Method: MethodPush, Payload: bytes.Repeat([]byte("a"), MaxFrame+1)}
	// Wrap the raw bytes as a JSON string so marshalling succeeds and
	// the size check is what fires.
	env.Payload = []byte(`"` + strings.Repeat("a", MaxFrame) + `"`)
	if err := WriteFrame(&bytes.Buffer{}, env); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestReadFrameRejectsBadHeaders(t *testing.T) {
	zero := make([]byte, 4) // zero-length frame
	if _, err := ReadFrame(bytes.NewReader(zero)); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	huge := make([]byte, 4)
	binary.BigEndian.PutUint32(huge, MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversize header accepted")
	}
	// Valid length, truncated body.
	trunc := make([]byte, 4, 6)
	binary.BigEndian.PutUint32(trunc, 100)
	trunc = append(trunc, '{', '}')
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestReadFrameRejectsMissingMethod(t *testing.T) {
	var buf bytes.Buffer
	body := []byte(`{"from":1}`)
	hdr := make([]byte, 4)
	binary.BigEndian.PutUint32(hdr, uint32(len(body)))
	buf.Write(hdr)
	buf.Write(body)
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("envelope without method accepted")
	}
}

func TestDecodeEmptyPayload(t *testing.T) {
	env := &Envelope{Method: MethodReport}
	var rep Report
	if err := env.Decode(&rep); err == nil {
		t.Fatal("empty payload decoded")
	}
}

// FuzzReadFrame feeds ReadFrame the bytes any TCP peer can send. It
// never panics; every error is typed — the stream ended before a header
// (io.EOF, io.ErrUnexpectedEOF) or the frame broke the protocol
// (errBadFrame); a frame it accepts has a method tag and re-encodes to
// a frame that reads back and re-encodes to the same bytes; and it allocates at most MaxFrame
// plus a constant, whatever length the header claims. Inputs are capped
// at 4 KiB, so decoding what was actually sent stays inside the
// constant: the header is the only input that could size an allocation
// beyond it.
func FuzzReadFrame(f *testing.F) {
	const maxInput, allocSlack = 4 << 10, 64 << 10
	frame := func(body string) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		return append(b, body...)
	}
	push, err := NewEnvelope(MethodPush, 3, Rumor{Round: 7})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := encodeFrame(push)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), valid...))
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add(frame(""))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{', '}'})
	f.Add(frame(`{"from":1}`))
	f.Add(frame(`{"method":"pull","payload":{"round":`))
	f.Add(frame(`{"method":"round","from":-1,"payload":{"round":2},"err":"x"}`))
	f.Add(frame(`{"method":7}`))
	f.Add(frame(`{"method":"x","payload": {"a" : "<&>"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxInput {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		env, err := ReadFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > MaxFrame+allocSlack {
			t.Fatalf("ReadFrame of %d bytes allocated %d bytes, over MaxFrame+%d", len(data), alloc, allocSlack)
		}
		if err != nil {
			if !errors.Is(err, errBadFrame) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			if env != nil {
				t.Fatalf("an envelope came back with error %v", err)
			}
			return
		}
		if env.Method == "" {
			t.Fatal("accepted an envelope without a method tag")
		}
		// Re-encoding normalizes the payload (compact JSON), so one
		// round trip reaches a fixed point.
		first, err := encodeFrame(env)
		if err != nil {
			t.Fatalf("accepted envelope does not re-encode: %v", err)
		}
		again, err := ReadFrame(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded envelope does not read back: %v", err)
		}
		if second, err := encodeFrame(again); err != nil || !bytes.Equal(first, second) {
			t.Fatalf("round trip is not a fixed point: %q vs %q (%v)", first, second, err)
		}
	})
}
