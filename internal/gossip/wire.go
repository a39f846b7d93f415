// Package gossip runs the paper's push/pull protocols on real TCP
// sockets instead of the simulator: live nodes speak a length-prefixed
// message envelope with a method-tag dispatcher (gossip plane: push and
// pull contacts; control plane: STARTUP / DISTRIBUTE / ROUND / REPORT /
// SHUTDOWN), a coordinator stands a cluster up on the same graph
// families the simulator uses, injects a rumor, and measures real
// wall-clock coverage curves. The overlay experiment (E16) closes the
// loop: the live curve and the simulator's prediction for the identical
// (graph, protocol, timing) cell are normalized and compared, with the
// spreading-time ratio as the headline number.
//
// Live operation adds exactly the effects the related work studies —
// asynchronous wakeups, message loss, per-link latency, counter-based
// acceptance thresholds — so the cluster is both a credibility test for
// the simulation stack and a scenario space the simulator does not
// cover.
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
	"strconv"
	"time"

	"rumor/internal/jsonlayout"
)

// Wire methods. The gossip plane (push, pull) is what nodes exchange;
// the control plane is what the coordinator drives.
const (
	// MethodPush delivers the rumor to a neighbor (payload: Rumor).
	MethodPush = "push"
	// MethodPull asks a neighbor for the rumor (payload: PullRequest;
	// reply payload: PullReply).
	MethodPull = "pull"
	// MethodStartup configures a node for a trial (payload:
	// StartupConfig). A second startup resets the node: state from the
	// previous trial is discarded and its async clock stopped.
	MethodStartup = "startup"
	// MethodDistribute injects the rumor (the node becomes the source).
	MethodDistribute = "distribute"
	// MethodRound drives one synchronous round (payload: RoundCmd;
	// reply payload: RoundAck).
	MethodRound = "round"
	// MethodReport asks for the node's informed state (reply payload:
	// Report).
	MethodReport = "report"
	// MethodShutdown ends the trial: the async clock stops and the
	// trial state is dropped. The node keeps serving (a new STARTUP
	// begins the next trial); a process-level host may additionally
	// exit on it (gossipd -exit-on-shutdown).
	MethodShutdown = "shutdown"
	// MethodPing is a liveness probe.
	MethodPing = "ping"
)

// MaxFrame bounds a single wire frame. Envelopes are a method tag plus
// a small JSON payload; anything larger is a protocol violation, not a
// big message.
const MaxFrame = 1 << 20

// CoordinatorFrom is the Envelope.From value used by the coordinator
// (it is not a graph vertex).
const CoordinatorFrom = -1

// Envelope is the one wire message: every frame, request or reply,
// gossip or control, is an Envelope. The receiving dispatcher routes on
// Method and decodes Payload with the method's registered handler — the
// flow-go gossip layer's (method, payload) shape.
type Envelope struct {
	// Method selects the handler on the receiving node.
	Method string `json:"method"`
	// From is the sender's node index (CoordinatorFrom for the
	// coordinator).
	From int `json:"from"`
	// Payload is the method-specific body.
	Payload json.RawMessage `json:"payload,omitempty"`
	// Err, on a reply, reports a handler failure.
	Err string `json:"err,omitempty"`
}

// NewEnvelope builds an envelope with payload marshalled to JSON
// (nil payload → empty).
func NewEnvelope(method string, from int, payload interface{}) (*Envelope, error) {
	env := &Envelope{Method: method, From: from}
	if payload != nil {
		raw, err := marshalPayload(payload)
		if err != nil {
			return nil, fmt.Errorf("gossip: marshal %s payload: %w", method, err)
		}
		env.Payload = raw
	}
	return env, nil
}

// Decode unmarshals the payload into out.
func (e *Envelope) Decode(out interface{}) error {
	if len(e.Payload) == 0 {
		return fmt.Errorf("gossip: %s: empty payload", e.Method)
	}
	if decodeHot(e.Payload, out) {
		return nil
	}
	if err := roundRefusal(e.Payload, out); err != nil {
		return &payloadError{method: e.Method, err: err}
	}
	if err := json.Unmarshal(e.Payload, out); err != nil {
		return fmt.Errorf("gossip: %s: decoding payload: %w", e.Method, err)
	}
	return nil
}

// The pinned layout. Every frame a node or the coordinator sends is an
// envelope whose method and error text are jsonlayout.Plain and whose
// payload is a compact value jsonlayout.ValueEnd accepts, and
// json.Marshal writes such an envelope as
//
//	{"method":"…","from":N[,"payload":…][,"err":"…"]}
//
// encodeFrame appends exactly those bytes and ReadFrame parses them in
// place, the payload a validated sub-slice of the frame body; the hot
// payloads (Ack, Rumor, PullRequest, RoundCmd and their replies) are
// written and read by hand in the bytes json.Marshal gives them.
// Anything else, in either direction, goes through encoding/json,
// which then decides whether a frame is accepted and words every
// error. FuzzFrameCodec holds both halves to the encoding/json codec
// they replaced.

// layoutBytes is the pinned layout's own text around the longest From.
const layoutBytes = len(`{"method":"","from":-9223372036854775808,"payload":,"err":""}`)

// methods are the tags a parsed envelope shares instead of a copy.
var methods = [...]string{MethodPush, MethodPull, MethodRound, MethodStartup, MethodDistribute, MethodReport, MethodShutdown, MethodPing}

// marshalPayload renders payload as JSON: the hot payloads by hand,
// anything else with json.Marshal.
func marshalPayload(payload interface{}) ([]byte, error) {
	switch p := payload.(type) {
	case Ack:
		return []byte("{}"), nil
	case Rumor:
		return appendRound(p.Round), nil
	case PullRequest:
		return appendRound(p.Round), nil
	case RoundCmd:
		return appendRound(p.Round), nil
	case RoundAck:
		return appendInformed(p.Informed), nil
	case PullReply:
		return appendInformed(p.Informed), nil
	}
	return json.Marshal(payload)
}

func appendRound(round int32) []byte {
	b := append(make([]byte, 0, len(`{"round":-2147483648}`)), `{"round":`...)
	return append(strconv.AppendInt(b, int64(round), 10), '}')
}

func appendInformed(informed bool) []byte {
	if informed {
		return []byte(`{"informed":true}`)
	}
	return []byte(`{"informed":false}`)
}

// decodeHot parses a hot payload in its one layout into out, and
// reports whether it did; anything else is left to json.Unmarshal.
func decodeHot(p []byte, out interface{}) bool {
	switch out := out.(type) {
	case *Ack:
		return out != nil && string(p) == "{}"
	case *Rumor:
		return out != nil && parseRound(p, &out.Round)
	case *PullRequest:
		return out != nil && parseRound(p, &out.Round)
	case *RoundCmd:
		return out != nil && parseRound(p, &out.Round)
	case *RoundAck:
		return out != nil && parseInformed(p, &out.Informed)
	case *PullReply:
		return out != nil && parseInformed(p, &out.Informed)
	}
	return false
}

func parseRound(p []byte, round *int32) bool {
	digits, ok := bytes.CutPrefix(p, []byte(`{"round":`))
	if !ok {
		return false
	}
	v, rest, ok := jsonlayout.CutInt(digits)
	if !ok || string(rest) != "}" || v != int64(int32(v)) {
		return false
	}
	*round = int32(v)
	return true
}

func parseInformed(p []byte, informed *bool) bool {
	switch string(p) {
	case `{"informed":true}`:
		*informed = true
	case `{"informed":false}`:
		*informed = false
	default:
		return false
	}
	return true
}

// roundRefusal returns the error json.Unmarshal gives when out is a
// non-nil round payload and p is {"round":N}, N an integer as JSON
// writes one that no int32 holds; otherwise nil, and p is left to
// json.Unmarshal. The error holds one copy of N. encoding/json's, with
// Decode's wrapping through fmt, is written out as it is made: about
// seven copies of a number that may be nearly MaxFrame long.
func roundRefusal(p []byte, out interface{}) error {
	var name string
	switch out := out.(type) {
	case *Rumor:
		if out != nil {
			name = "Rumor"
		}
	case *PullRequest:
		if out != nil {
			name = "PullRequest"
		}
	case *RoundCmd:
		if out != nil {
			name = "RoundCmd"
		}
	}
	n, ok := bytes.CutPrefix(p, []byte(`{"round":`))
	if n, ok = bytes.CutSuffix(n, []byte("}")); name == "" || !ok || !outsideInt32(n) {
		return nil
	}
	// The offset is where encoding/json's reader stands after the number.
	return &json.UnmarshalTypeError{Value: "number " + string(n), Type: reflect.TypeFor[int32](),
		Offset: int64(len(p) - 1), Struct: name, Field: "round"}
}

// outsideInt32 reports whether n is an integer as JSON writes one — an
// optional minus, then 0 or digits with no leading zero — that no int32
// holds.
func outsideInt32(n []byte) bool {
	digits := bytes.TrimPrefix(n, []byte("-"))
	if len(digits) == 0 || digits[0] == '0' {
		return false // 0 and -0 fit; a leading zero is not JSON
	}
	var v int64 // saturates just past int32's range
	for _, c := range digits {
		if c < '0' || c > '9' {
			return false
		}
		v = min(10*v+int64(c-'0'), math.MaxInt32+2)
	}
	if len(digits) < len(n) {
		return v > -math.MinInt32
	}
	return v > math.MaxInt32
}

// payloadError is Decode's error for a payload that encoding/json
// refuses, worded as Decode wraps encoding/json's errors, but written
// out only when read.
type payloadError struct {
	method string
	err    error
}

func (e *payloadError) Error() string {
	return "gossip: " + e.method + ": decoding payload: " + e.err.Error()
}

func (e *payloadError) Unwrap() error { return e.err }

// encodeFrame renders env as one length-prefixed frame: a 4-byte
// big-endian length followed by the JSON envelope.
func encodeFrame(env *Envelope) ([]byte, error) {
	var frame []byte
	if jsonlayout.Plain(env.Method) && jsonlayout.Plain(env.Err) && (len(env.Payload) == 0 || jsonlayout.ValueEnd(env.Payload) == len(env.Payload)) {
		frame = appendEnvelope(make([]byte, 4, 4+layoutBytes+len(env.Method)+len(env.Payload)+len(env.Err)), env)
	} else {
		body, err := json.Marshal(env)
		if err != nil {
			return nil, fmt.Errorf("gossip: marshal envelope: %w", err)
		}
		frame = append(make([]byte, 4, 4+len(body)), body...)
	}
	n := len(frame) - 4
	if n > MaxFrame {
		return nil, fmt.Errorf("gossip: frame of %d bytes exceeds the %d-byte limit", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	return frame, nil
}

// appendEnvelope appends env in the pinned layout.
func appendEnvelope(b []byte, env *Envelope) []byte {
	b = append(b, `{"method":"`...)
	b = append(b, env.Method...)
	b = append(b, `","from":`...)
	b = strconv.AppendInt(b, int64(env.From), 10)
	if len(env.Payload) > 0 {
		b = append(b, `,"payload":`...)
		b = append(b, env.Payload...)
	}
	if env.Err != "" {
		b = append(b, `,"err":"`...)
		b = append(b, env.Err...)
		b = append(b, '"')
	}
	return append(b, '}')
}

// WriteFrame writes env as one length-prefixed frame, in one Write (on
// a socket, one segment instead of a 4-byte one and its body).
func WriteFrame(w io.Writer, env *Envelope) error {
	frame, err := encodeFrame(env)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// errBadFrame marks a frame that breaks the wire protocol (a length out
// of range, a body cut short, an envelope that does not decode), as
// opposed to a stream that ended between frames.
var errBadFrame = errors.New("gossip: bad frame")

// ReadFrame reads one length-prefixed frame and decodes the envelope.
// It reads the header and the body separately; over a socket, pass a
// bufio.Reader so that is one receive. An error is either the reader's
// own, from the header (io.EOF when the stream ends between frames), or
// wraps errBadFrame. The body buffer is the only allocation a header
// can size, and it is at most MaxFrame.
func ReadFrame(r io.Reader) (*Envelope, error) {
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
	if env := parseEnvelope(body); env != nil {
		return env, nil
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

// parseEnvelope parses a frame body in the pinned layout, or returns
// nil when the body is anything else (an empty method tag included).
func parseEnvelope(body []byte) *Envelope {
	rest, ok := bytes.CutPrefix(body, []byte(`{"method":"`))
	if !ok {
		return nil
	}
	method, rest, ok := jsonlayout.CutString(rest, `","from":`)
	if !ok || len(method) == 0 {
		return nil
	}
	from, rest, ok := jsonlayout.CutInt(rest)
	if !ok || from != int64(int(from)) {
		return nil
	}
	env := &Envelope{From: int(from)}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"payload":`)); ok {
		end := jsonlayout.ValueEnd(rest)
		if end < 0 {
			return nil
		}
		env.Payload, rest = json.RawMessage(rest[:end:end]), rest[end:]
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"err":"`)); ok {
		var errText []byte
		if errText, rest, ok = jsonlayout.CutString(rest, `"`); !ok {
			return nil
		}
		env.Err = string(errText)
	}
	if string(rest) != "}" {
		return nil
	}
	env.Method = internMethod(method)
	return env
}

// internMethod returns the method constant b spells, or a copy of b.
func internMethod(b []byte) string {
	for _, m := range methods {
		if string(b) == m {
			return m
		}
	}
	return string(b)
}

// StartupConfig is the MethodStartup payload: everything a node needs
// to play its vertex in one trial.
type StartupConfig struct {
	// Node is this node's graph vertex index.
	Node int `json:"node"`
	// Neighbors are the TCP addresses of the vertex's graph neighbors.
	Neighbors []string `json:"neighbors"`
	// Protocol is "push", "pull", or "push-pull" (the service/cell
	// names).
	Protocol string `json:"protocol"`
	// Timing is "sync" (coordinator-driven rounds) or "async" (a
	// per-node rate-1 exponential clock scaled by TimeUnit).
	Timing string `json:"timing"`
	// LossProb is the per-transmission loss probability in [0, 1):
	// each pushed rumor and each pull reply is dropped independently
	// with this probability, mirroring the simulator's TransmitProb =
	// 1 - LossProb.
	LossProb float64 `json:"loss_prob,omitempty"`
	// Threshold is the counter-based acceptance rule: the node accepts
	// the rumor (and starts gossiping it) only after hearing it this
	// many times. 0 or 1 is the paper's immediate acceptance.
	Threshold int `json:"threshold,omitempty"`
	// Seed drives the node's RNG (neighbor choice, loss draws, clock).
	Seed uint64 `json:"seed"`
	// TimeUnit is the wall-clock length of one protocol time unit for
	// async operation (nanoseconds on the wire). An async node's clock
	// ticks at rate 1 per TimeUnit.
	TimeUnit time.Duration `json:"time_unit,omitempty"`
	// Latency injects per-link message latency.
	Latency LatencySpec `json:"latency,omitempty"`
}

// Rumor is the MethodPush payload (and the informing half of a pull
// reply): the rumor plus the round tag that lets sync coverage curves
// be reconstructed exactly.
type Rumor struct {
	// Round is the synchronous round the transmission belongs to
	// (0 for the injection, -1 in async operation, where wall-clock
	// timestamps measure the curve instead).
	Round int32 `json:"round"`
}

// PullRequest is the MethodPull payload.
type PullRequest struct {
	// Round is the caller's current synchronous round (-1 async).
	Round int32 `json:"round"`
}

// PullReply answers a pull: Informed reports whether the rumor came
// back (false when the callee is uninformed or the reply transmission
// was lost).
type PullReply struct {
	Informed bool `json:"informed"`
}

// RoundCmd is the MethodRound payload.
type RoundCmd struct {
	// Round is the 1-based round number being driven.
	Round int32 `json:"round"`
}

// RoundAck answers a round command with the node's informed state
// after its contacts for the round completed.
type RoundAck struct {
	Informed bool `json:"informed"`
}

// Report is the MethodReport reply payload.
type Report struct {
	// Node is the reporting vertex.
	Node int `json:"node"`
	// Informed reports acceptance (hearings reached the threshold).
	Informed bool `json:"informed"`
	// Hearings counts how many times the rumor was heard.
	Hearings int `json:"hearings"`
	// InformedRound is the sync round in which the node accepted the
	// rumor (0 for the source, -1 if not yet informed or async).
	InformedRound int32 `json:"informed_round"`
	// InformedAtUnixNano is the wall-clock acceptance time (0 if not
	// informed). Async coverage curves are computed from these stamps
	// relative to the source's.
	InformedAtUnixNano int64 `json:"informed_at_unix_nano,omitempty"`
	// Sent, Received, and Dropped count this node's gossip-plane
	// messages in the current trial (drops are loss injections on the
	// sending side).
	Sent     int64 `json:"sent"`
	Received int64 `json:"received"`
	Dropped  int64 `json:"dropped"`
}

// Ack is the generic empty reply payload.
type Ack struct{}
