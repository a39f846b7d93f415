package gossip

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
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

// checkReadAgainstOracle fails t unless ReadFrame and the oracle give
// the frame the same verdict, the same error text and, on acceptance,
// the same envelope.
func checkReadAgainstOracle(t *testing.T, frame []byte) {
	t.Helper()
	want, werr := oracleReadFrame(bytes.NewReader(frame))
	got, err := ReadFrame(bytes.NewReader(frame))
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("verdicts differ on %q: got %v, oracle %v", frame, err, werr)
	case err != nil && err.Error() != werr.Error():
		t.Fatalf("errors differ on %q: got %v, oracle %v", frame, err, werr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("envelopes differ on %q: got %+v, oracle %+v", frame, got, want)
	}
}

// checkDecodeAgainstOracle fails t unless Decode and the oracle give
// env's payload the same verdict, error text and value in every hot
// payload type, and in Report, which stays on encoding/json.
func checkDecodeAgainstOracle(t *testing.T, env *Envelope) {
	t.Helper()
	for _, v := range []interface{}{Rumor{}, PullRequest{}, RoundCmd{}, RoundAck{}, PullReply{}, Ack{}, Report{}} {
		got, want := reflect.New(reflect.TypeOf(v)), reflect.New(reflect.TypeOf(v))
		err, werr := env.Decode(got.Interface()), oracleDecode(env, want.Interface())
		switch {
		case (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()):
			t.Fatalf("%T from %q: got %v, oracle %v", v, env.Payload, err, werr)
		case !reflect.DeepEqual(got.Interface(), want.Interface()):
			t.Fatalf("%T from %q: got %+v, oracle %+v", v, env.Payload, got.Elem(), want.Elem())
		}
	}
}

// FuzzFrameCodec holds the pinned-layout codec to the encoding/json
// one it replaced. For a fuzzed (method, from, payload, err) envelope:
// wherever the oracle encodes it, encodeFrame writes the oracle's
// bytes (and fails where it fails); that frame, a copy of it with byte
// c set, inserted or deleted at pos, and the payload framed as a whole
// body all get the oracle's verdict and envelope from ReadFrame; and
// the fuzzed payload, the same mutation of it, its suffix from pos and
// the hot payloads built from from all decode as the oracle decodes
// them.
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
		frame, err := encodeFrame(env)
		want, werr := oracleEncodeFrame(env)
		switch {
		case (err == nil) != (werr == nil):
			t.Fatalf("encode verdicts differ on %+v: got %v, oracle %v", env, err, werr)
		case !bytes.Equal(frame, want):
			t.Fatalf("frames differ on %+v\n got: %q\nwant: %q", env, frame, want)
		}
		// mutate returns a copy of b with one byte set, inserted or
		// deleted at an offset of pos past skip.
		mutate := func(b []byte, skip int) []byte {
			i := skip + int(pos)%(len(b)-skip)
			m := append([]byte(nil), b[:i]...)
			switch op % 3 {
			case 0:
				return append(append(m, c), b[i+1:]...)
			case 1:
				return append(append(m, c), b[i:]...)
			}
			return append(m, b[i+1:]...)
		}
		if err == nil {
			checkReadAgainstOracle(t, frame)
			mutated := mutate(frame, 4)
			binary.BigEndian.PutUint32(mutated, uint32(len(mutated)-4))
			checkReadAgainstOracle(t, mutated)
		}
		checkDecodeAgainstOracle(t, env)
		if len(payload) > 0 && len(payload) <= MaxFrame {
			checkReadAgainstOracle(t, append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...))
			checkDecodeAgainstOracle(t, &Envelope{Method: method, Payload: mutate(payload, 0)})
			checkDecodeAgainstOracle(t, &Envelope{Method: method, Payload: payload[int(pos)%len(payload):]})
		}

		for _, v := range []interface{}{Ack{}, Rumor{Round: int32(from)}, PullRequest{Round: int32(from)}, RoundCmd{Round: int32(from)},
			RoundAck{Informed: from&1 == 1}, PullReply{Informed: from&2 == 2}} {
			got, err := NewEnvelope(method, from, v)
			want, werr := oracleNewEnvelope(method, from, v)
			if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("NewEnvelope(%q, %d, %+v) = %+v, %v; oracle %+v, %v", method, from, v, got, err, want, werr)
			}
			checkDecodeAgainstOracle(t, got)
		}
	})
}
