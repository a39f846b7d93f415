package gossip

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"rumor/internal/jsonlayout/layouttest"
)

// oracleNewEnvelope, oracleDecode, oracleEncodeFrame and
// oracleReadFrame are the encoding/json envelope codec that the
// pinned-layout codec in wire.go replaced, kept verbatim as the
// oracle: the new codec must write the frames this encoder wrote and
// read every frame, and decode every payload, the way this decoder
// did.
func oracleNewEnvelope(method string, from int, payload interface{}) (*Envelope, error) {
	env := &Envelope{Method: method, From: from}
	if payload != nil {
		raw, err := json.Marshal(payload)
		if err != nil {
			return nil, fmt.Errorf("gossip: marshal %s payload: %w", method, err)
		}
		env.Payload = raw
	}
	return env, nil
}

func oracleDecode(e *Envelope, out interface{}) error {
	if len(e.Payload) == 0 {
		return fmt.Errorf("gossip: %s: empty payload", e.Method)
	}
	if err := json.Unmarshal(e.Payload, out); err != nil {
		return fmt.Errorf("gossip: %s: decoding payload: %w", e.Method, err)
	}
	return nil
}

func oracleEncodeFrame(env *Envelope) ([]byte, error) {
	body, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("gossip: marshal envelope: %w", err)
	}
	if len(body) > MaxFrame {
		return nil, fmt.Errorf("gossip: frame of %d bytes exceeds the %d-byte limit", len(body), MaxFrame)
	}
	frame := make([]byte, 4, 4+len(body))
	binary.BigEndian.PutUint32(frame, uint32(len(body)))
	return append(frame, body...), nil
}

func oracleReadFrame(r io.Reader) (*Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length frame", errBadFrame)
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds the %d-byte limit", errBadFrame, n, MaxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("%w: truncated frame: %w", errBadFrame, err)
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("%w: decoding envelope: %w", errBadFrame, err)
	}
	if env.Method == "" {
		return nil, fmt.Errorf("%w: envelope without a method tag", errBadFrame)
	}
	return &env, nil
}

// frames is the frame codec, encodeFrame and ReadFrame, held to
// oracleEncodeFrame and oracleReadFrame, error text included. Its
// writer falls back to encoding/json inside.
var frames = layouttest.Codec[*Envelope]{
	Decode: func(b []byte, env **Envelope) (err error) {
		*env, err = ReadFrame(bytes.NewReader(b))
		return err
	},
	Oracle: func(b []byte, env **Envelope) (err error) {
		*env, err = oracleReadFrame(bytes.NewReader(b))
		return err
	},
	Append: func(b []byte, env **Envelope) ([]byte, bool) {
		frame, err := encodeFrame(*env)
		return append(b, frame...), err == nil
	},
	Encode: func(env **Envelope) ([]byte, error) { return oracleEncodeFrame(*env) },
}

// payloads is the codec of method's payloads of type P: Decode and
// marshalPayload, NewEnvelope's writer, held to oracleDecode and the
// json.Marshal of oracleNewEnvelope. The hot payloads are written and
// read by hand, every other one by encoding/json.
func payloads[P any](method string) layouttest.Codec[P] {
	return layouttest.Codec[P]{
		Decode: func(b []byte, v *P) error { return (&Envelope{Method: method, Payload: b}).Decode(v) },
		Oracle: func(b []byte, v *P) error { return oracleDecode(&Envelope{Method: method, Payload: b}, v) },
		Append: func(b []byte, v *P) ([]byte, bool) {
			p, err := marshalPayload(*v)
			return append(b, p...), err == nil
		},
		Encode: func(v *P) ([]byte, error) { return json.Marshal(*v) },
	}
}

// checkPayloads holds method's payloads of type P to the oracle: each
// of bs read, and v written.
func checkPayloads[P any](t *testing.T, method string, v P, bs [][]byte) {
	t.Helper()
	c := payloads[P](method)
	for _, b := range bs {
		c.Reads(t, b)
	}
	c.Writes(t, &v)
}

// TestFrameCodecShapes holds the frame and payload codecs to the oracle
// and to their allocation bounds on payloads that are a long run of one
// shape, framed in an envelope and alone. A frame costs its body
// buffer and a copy of the payload where encoding/json reads it. A
// payload with a round field, read alone, costs at most two bytes per
// byte: a long number that does not fit a Round is refused with one
// copy of its digits in the error.
func TestFrameCodecShapes(t *testing.T) {
	const head = `{"method":"push","from":1,"payload":`
	rumors, pulls, cmds := payloads[Rumor](MethodPush), payloads[PullRequest](MethodPull), payloads[RoundCmd](MethodRound)
	for _, payload := range layouttest.Shapes(`{"round":`, "}", MaxFrame-len(head)-16) {
		body := append(append([]byte(head), payload...), '}')
		frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
		frames.Reads(t, frame)
		frames.Allocates(t, frame, 2, 64<<10)
		rumors.Reads(t, payload)
		rumors.Allocates(t, payload, 2, 4<<10)
		pulls.Reads(t, payload)
		pulls.Allocates(t, payload, 2, 4<<10)
		cmds.Reads(t, payload)
		cmds.Allocates(t, payload, 2, 4<<10)
	}
}

// TestRoundRefusalIsEncodingJSONs: a round that no int32 holds is
// refused with the error json.Unmarshal gives, field for field under
// errors.As, offset included, and with Decode's wording; 0, -0, a
// leading zero, a fraction and the int32 limits are not refused here.
func TestRoundRefusalIsEncodingJSONs(t *testing.T) {
	for _, n := range []string{"2147483648", "-2147483649", "9223372036854775808", "-99999999999999999999999"} {
		p := []byte(`{"round":` + n + `}`)
		for _, out := range []any{new(Rumor), new(PullRequest), new(RoundCmd)} {
			got, want := (&Envelope{Method: MethodRound, Payload: p}).Decode(out), oracleDecode(&Envelope{Method: MethodRound, Payload: p}, out)
			var gt, wt *json.UnmarshalTypeError
			if !errors.As(got, &gt) || !errors.As(want, &wt) || !reflect.DeepEqual(gt, wt) || got.Error() != want.Error() {
				t.Fatalf("%s into %T: %#v (%v), encoding/json %#v (%v)", p, out, gt, got, wt, want)
			}
		}
	}
	for _, n := range []string{"0", "-0", "2147483647", "-2147483648", "01", "1.5", "-", "1e3", "2147483648 "} {
		if err := roundRefusal([]byte(`{"round":`+n+`}`), new(Rumor)); err != nil {
			t.Fatalf("round %q refused: %v", n, err)
		}
	}
	if err := roundRefusal([]byte(`{"round":2147483648}`), (*Rumor)(nil)); err != nil {
		t.Fatalf("refused into a nil Rumor: %v", err)
	}
}

// FuzzFrameCodec holds the frame and payload codecs to the oracle on a
// fuzzed (method, from, payload, err) envelope: its frame, that frame
// with byte c set, inserted or deleted at pos, and the payload framed
// as a whole body; and the payload, the same mutation of it, its suffix
// from pos and the hot payloads built from from, in every payload type.
func FuzzFrameCodec(f *testing.F) {
	for _, s := range frameSteps {
		env, err := oracleNewEnvelope(s.method, s.from, s.payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env.Method, env.From, []byte(env.Payload), "", uint16(12), byte('"'), uint8(0))
	}
	f.Add(MethodRound, 5, []byte(nil), "round before startup", uint16(40), byte('}'), uint8(1))
	f.Add("teleport", -1, []byte(nil), `unknown method "teleport"`, uint16(3), byte(0), uint8(2))
	f.Add("x<y", 1, []byte(` { "a" : [1, 2.5e-3, "é"] } `), "é", uint16(9), byte(','), uint8(3))
	f.Add(MethodPull, 7, []byte(`{"round":2147483648}`), "", uint16(30), byte('9'), uint8(1))
	f.Add(MethodPush, math.MinInt, []byte(`{"round":-7,"round":8}`), "", uint16(25), byte('-'), uint8(0))
	f.Add(MethodPull, 1, []byte(`{"informed":true}`), "a&b", uint16(20), byte(' '), uint8(1))
	f.Add(MethodRound, 3, []byte(`7}`), "", uint16(1), byte('{'), uint8(1))
	f.Add(MethodPush, 2, []byte(`"\ud800< >"`), "\x7f", uint16(14), byte('\\'), uint8(2))
	f.Add(MethodReport, 9, []byte(`{"node":1,"informed":true,"hearings":2,"informed_round":3,"sent":1}`), "", uint16(0), byte(0), uint8(3))
	f.Fuzz(func(t *testing.T, method string, from int, payload []byte, errText string, pos uint16, c byte, op uint8) {
		env := &Envelope{Method: method, From: from, Payload: payload, Err: errText}
		frames.Writes(t, &env)
		// mutate returns a copy of b with one byte set, inserted or
		// deleted at an offset of pos past skip.
		mutate := func(b []byte, skip int) []byte {
			return layouttest.Mutate(b, skip+int(pos)%(len(b)-skip), c, op%3)
		}
		if frame, err := encodeFrame(env); err == nil {
			mutated := mutate(frame, 4)
			binary.BigEndian.PutUint32(mutated, uint32(len(mutated)-4))
			frames.Reads(t, mutated)
		}
		bs := [][]byte{payload, []byte("{}"), appendRound(int32(from)), appendInformed(from&1 == 1), appendInformed(from&2 == 2)}
		if len(payload) > 0 && len(payload) <= MaxFrame {
			frames.Reads(t, append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...))
			bs = append(bs, mutate(payload, 0), payload[int(pos)%len(payload):])
		}
		checkPayloads(t, method, Ack{}, bs)
		checkPayloads(t, method, Rumor{Round: int32(from)}, bs)
		checkPayloads(t, method, PullRequest{Round: int32(from)}, bs)
		checkPayloads(t, method, RoundCmd{Round: int32(from)}, bs)
		checkPayloads(t, method, RoundAck{Informed: from&1 == 1}, bs)
		checkPayloads(t, method, PullReply{Informed: from&2 == 2}, bs)
		checkPayloads(t, method, Report{Node: from, Hearings: int(pos)}, bs)
	})
}
