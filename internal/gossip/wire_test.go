package gossip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
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

var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

// frameSteps drive one node through a trial with a frame of every
// method: the request as its caller builds it, and the reply the
// node's dispatcher answers with. want is what the reply payload
// decodes to; nil marks an error reply, which has none.
var frameSteps = []struct {
	method  string
	from    int
	payload interface{}
	want    interface{}
}{
	{MethodPing, CoordinatorFrom, nil, Ack{}},
	{MethodStartup, CoordinatorFrom, StartupConfig{Node: 5, Neighbors: []string{}, Protocol: "push-pull", Timing: "sync", Seed: 7}, Ack{}},
	{MethodReport, CoordinatorFrom, nil, Report{Node: 5, InformedRound: -1}},
	{MethodDistribute, CoordinatorFrom, Ack{}, Ack{}},
	{MethodRound, CoordinatorFrom, RoundCmd{Round: 1}, RoundAck{Informed: true}},
	{MethodPush, 3, Rumor{Round: 1}, Ack{}},
	{MethodPull, 3, PullRequest{Round: 2}, PullReply{Informed: true}},
	{MethodShutdown, CoordinatorFrom, nil, Ack{}},
	{MethodRound, CoordinatorFrom, RoundCmd{Round: 2}, nil},
	{"teleport", CoordinatorFrom, nil, nil},
}

// TestFrameRoundTrip pins the wire format in testdata/frames.golden:
// nodes of different builds interoperate, so every frame a node or
// the coordinator writes must stay byte for byte what it was. Each
// frame is one Write, reads back as the envelope that was written, and
// its payload decodes to the value it was built from.
func TestFrameRoundTrip(t *testing.T) {
	n := NewNode(nil)
	defer n.Close()
	var golden bytes.Buffer
	for _, s := range frameSteps {
		req, err := NewEnvelope(s.method, s.from, s.payload)
		if err != nil {
			t.Fatal(err)
		}
		got := frameRoundTrip(t, &golden, "request", req)
		if s.payload != nil {
			decodesTo(t, got, s.payload)
		}
		reply := frameRoundTrip(t, &golden, "reply", n.dispatch(got))
		if (s.want == nil) != (reply.Err != "") {
			t.Fatalf("%s reply %+v, want an error reply: %v", s.method, reply, s.want == nil)
		}
		if s.want != nil {
			decodesTo(t, reply, s.want)
		}
	}
	path := filepath.Join("testdata", "frames.golden")
	if *updateGolden {
		if err := os.WriteFile(path, golden.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden.Bytes(), want) {
		t.Errorf("frames drifted from %s\n got:\n%s\nwant:\n%s", path, golden.Bytes(), want)
	}
}

// frameRoundTrip writes env with WriteFrame, appends the frame to the
// golden listing and returns what ReadFrame reads back from it.
func frameRoundTrip(t *testing.T, golden *bytes.Buffer, kind string, env *Envelope) *Envelope {
	t.Helper()
	var buf writeCounter
	if err := WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	if buf.writes != 1 {
		t.Fatalf("%s %s frame in %d writes, want 1", env.Method, kind, buf.writes)
	}
	fmt.Fprintf(golden, "%s %s %q\n", env.Method, kind, buf.Bytes())
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, env) || buf.Len() != 0 {
		t.Fatalf("%s frame read back as %+v with %d bytes left, want %+v", kind, got, buf.Len(), env)
	}
	return got
}

// decodesTo checks that env's payload decodes to want.
func decodesTo(t *testing.T, env *Envelope, want interface{}) {
	t.Helper()
	got := reflect.New(reflect.TypeOf(want))
	if err := env.Decode(got.Interface()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Elem().Interface(), want) {
		t.Fatalf("%s payload %s decoded to %+v, want %+v", env.Method, env.Payload, got.Elem().Interface(), want)
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
		frames.Allocates(t, data, 0, MaxFrame+allocSlack)
		env, err := ReadFrame(bytes.NewReader(data))
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
