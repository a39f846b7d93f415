// Package api defines the wire protocol of the rumord v1 HTTP API: the
// structured error envelope with its stable machine-readable codes, the
// server-sent-event names of the job event stream, the idempotency and
// cursor headers, and the experiment wire types. Both the server
// (internal/service, internal/experiments) and the typed Go SDK
// (rumor/client) build on this package, so the two ends of the wire can
// never drift apart.
//
// Compatibility contract: the code constants below are API. Clients
// switch on them (the SDK's retry logic keys on CodeQueueFull, resume
// logic on CodeJobFailed/CodeJobCancelled), so existing codes must
// never be renamed or reused; new failure modes get new codes. The
// golden test in this package pins every code and the envelope shape.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Stable machine-readable error codes. Every v1 error response carries
// exactly one of these in its envelope.
const (
	// CodeBadRequest: the request itself is malformed (unparseable
	// JSON, unknown fields, invalid query parameters or cursors).
	CodeBadRequest = "bad_request"
	// CodeInvalidSpec: the request parsed but the job or cell spec is
	// semantically invalid (unknown family, trials < 1, ...).
	CodeInvalidSpec = "invalid_spec"
	// CodeQueueFull: transient backpressure — the pending-cell queue
	// cannot accept the job right now. Retry with backoff (the response
	// carries Retry-After).
	CodeQueueFull = "queue_full"
	// CodeJobTooLarge: the job exceeds the queue capacity outright and
	// can never be accepted at any load; do not retry, split the job.
	CodeJobTooLarge = "job_too_large"
	// CodeRequestTooLarge: the request body is longer than
	// MaxRequestBytes (HTTP 413); the server stopped reading it. Do not
	// retry; split the job.
	CodeRequestTooLarge = "request_too_large"
	// CodeCellTooLarge: a cell's n, trial count or adjacency is above
	// MaxCellNodes, MaxCellTrials or MaxCellBytes; nothing was queued or
	// allocated. Do not retry.
	CodeCellTooLarge = "cell_too_large"
	// CodeShuttingDown: the server is draining and accepts no new work.
	CodeShuttingDown = "shutting_down"
	// CodeJobNotFound: no job with the requested ID (never submitted,
	// or evicted by terminal-job retention).
	CodeJobNotFound = "job_not_found"
	// CodeExperimentNotFound: no experiment with the requested ID.
	CodeExperimentNotFound = "experiment_not_found"
	// CodeIdempotencyMismatch: the Idempotency-Key was seen before but
	// with a different job spec; the submit is rejected rather than
	// silently returning someone else's job.
	CodeIdempotencyMismatch = "idempotency_mismatch"
	// CodeJobFailed: the job terminated with a cell error; streamed as
	// the final row/event of a result or event stream.
	CodeJobFailed = "job_failed"
	// CodeJobCancelled: the job was cancelled before completing;
	// streamed as the final row/event of a result or event stream.
	CodeJobCancelled = "job_cancelled"
	// CodeInternal: an unclassified server-side failure.
	CodeInternal = "internal"
)

// Codes returns every stable error code, in documentation order. The
// golden test pins this list; the README's code table mirrors it.
func Codes() []string {
	return []string{
		CodeBadRequest,
		CodeInvalidSpec,
		CodeQueueFull,
		CodeJobTooLarge,
		CodeRequestTooLarge,
		CodeCellTooLarge,
		CodeShuttingDown,
		CodeJobNotFound,
		CodeExperimentNotFound,
		CodeIdempotencyMismatch,
		CodeJobFailed,
		CodeJobCancelled,
		CodeInternal,
	}
}

// Request headers of the v1 API.
const (
	// IdempotencyKeyHeader makes POST /v1/jobs idempotent: resubmits
	// with the same key and spec return the original job instead of
	// enqueueing a duplicate.
	IdempotencyKeyHeader = "Idempotency-Key"
	// LastEventIDHeader resumes a result or event stream after the
	// given cell index (the SSE standard reconnect header; the ?after=
	// query parameter is its querystring equivalent).
	LastEventIDHeader = "Last-Event-ID"
	// IdempotencyReplayedHeader is set to "true" on a submit response
	// served from the idempotency map rather than a fresh enqueue.
	IdempotencyReplayedHeader = "Idempotency-Replayed"
	// RequestIDHeader carries the request correlation ID. Clients may
	// set it to thread their own ID through the server's logs; the
	// server echoes it (or a generated one) on every response.
	RequestIDHeader = "X-Request-Id"
)

// Server-sent event names of GET /v1/jobs/{id}/events.
const (
	// EventState carries a JobStatus snapshot; emitted on every job
	// state transition (queued, running, done, failed, cancelled).
	EventState = "state"
	// EventCell carries one CellResult; emitted per cell completion in
	// canonical cell order, with the cell index as the SSE event ID (so
	// Last-Event-ID resume restarts exactly after the last seen cell).
	EventCell = "cell"
	// EventError carries an Error envelope; emitted as the final event
	// of a stream whose job failed or was cancelled.
	EventError = "error"
)

// Error is the structured API error: a stable machine-readable code
// plus a human-readable message. It is the payload of every non-2xx
// response body and of terminal stream rows/events, wrapped in an
// Envelope.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// HTTPStatus is the transport status the error arrived with
	// (client-side convenience; never serialized).
	HTTPStatus int `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// IsCode reports whether err is (or wraps) an API Error with the given
// code.
func IsCode(err error, code string) bool {
	var apiErr *Error
	return errors.As(err, &apiErr) && apiErr.Code == code
}

// Envelope is the JSON error wrapper: {"error": {"code": ..., "message": ...}}.
type Envelope struct {
	Error *Error `json:"error"`
}

// WriteJSON writes v as JSON with HTML escaping off — the API's
// canonical encoder settings, shared by handlers and stream rows so the
// same value renders identically everywhere.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError writes the error envelope with the given code and message.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	WriteJSON(w, status, Envelope{Error: &Error{Code: code, Message: message}})
}

// MaxRequestBytes bounds the body of every POST the API decodes: a job
// that fills the default 4096-cell queue with 2 KiB cell specs fits, a
// body meant to exhaust the daemon's memory does not.
const MaxRequestBytes = 8 << 20

// Admission limits on one cell, above every size this repository runs
// (the benchmark's large cell is n = 250 000, the README's largest run
// n = 10^7, the longest sample 30 000 trials) and below what takes a
// daemon down: an n = 10^9 graph, the 8 GB Times slice of 10^9 trials,
// or a complete graph at n = 10^8, is refused with CodeCellTooLarge
// before anything is built. MaxCellBytes bounds the graph's adjacency,
// 8(n+1) + 8m bytes for m edges as the family estimates them.
const (
	MaxCellNodes  = 100_000_000
	MaxCellTrials = 10_000_000
	MaxCellBytes  = 8 << 30
)

// DecodeRequest decodes r's JSON body into v, rejecting unknown fields
// and reading at most MaxRequestBytes. It answers nothing itself (an
// empty body is io.EOF, which one endpoint accepts): a caller that
// rejects the error hands it to WriteDecodeError.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v interface{}) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// WriteDecodeError answers a request whose body DecodeRequest refused:
// 413 request_too_large when it ran past MaxRequestBytes, 400
// bad_request otherwise. what names the body ("job spec").
func WriteDecodeError(w http.ResponseWriter, what string, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteError(w, http.StatusRequestEntityTooLarge, CodeRequestTooLarge,
			fmt.Sprintf("decoding %s: body exceeds %d bytes", what, tooLarge.Limit))
		return
	}
	WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("decoding %s: %v", what, err))
}

// EncodeRow appends one NDJSON row (canonical encoder settings plus the
// trailing newline json.Encoder emits) to w.
func EncodeRow(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// Marshal renders v with the API's canonical encoder settings (HTML
// escaping off, no trailing newline) — the same bytes EncodeRow
// streams, so a value serialized as an SSE data payload and as an
// NDJSON row is bit-for-bit identical.
func Marshal(v interface{}) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimRight(b.Bytes(), "\n"), nil
}

// WriteSSE writes one server-sent event. id is omitted when empty; data
// must be a single line (JSON without raw newlines qualifies).
func WriteSSE(w io.Writer, event, id string, data []byte) error {
	if _, err := fmt.Fprintf(w, "event: %s\n", event); err != nil {
		return err
	}
	if id != "" {
		if _, err := fmt.Fprintf(w, "id: %s\n", id); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "data: %s\n\n", data)
	return err
}

// Health is the GET /healthz payload: liveness plus build identity, so
// a fleet operator can tell which revision each node runs without
// shelling in. Status is always "ok" when the handler answers at all;
// the build fields come from debug.ReadBuildInfo and are empty when the
// binary was built without VCS stamping (e.g. `go test` binaries).
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision,omitempty"`
	// Dirty reports a build from a modified working tree (vcs.modified).
	Dirty bool `json:"dirty,omitempty"`
}

// ExperimentInfo is one row of the GET /v1/experiments listing.
type ExperimentInfo struct {
	ID         string `json:"id"`
	Title      string `json:"title"`
	Claim      string `json:"claim"`
	CellsQuick int    `json:"cells_quick"`
	CellsFull  int    `json:"cells_full"`
}

// RunExperimentRequest is the POST /v1/experiments/{id} body. An empty
// body selects the defaults (full mode, default seed, priority 0).
type RunExperimentRequest struct {
	// Quick shrinks sizes and trial counts (the -quick CLI flag).
	Quick bool `json:"quick"`
	// Seed is the root seed; 0 selects the suite default.
	Seed uint64 `json:"seed"`
	// Priority orders the experiment's job in the scheduler queue.
	Priority int `json:"priority"`
}

// ExperimentOutcome is the final row of a POST /v1/experiments/{id}
// stream: the verdict the reducer computed over the preceding cells. It
// mirrors the experiment package's Outcome on the wire (Verdict renders
// as its string name).
type ExperimentOutcome struct {
	ID      string `json:"id"`
	Title   string `json:"title"`
	Verdict string `json:"verdict"`
	Summary string `json:"summary"`
	Details string `json:"details,omitempty"`
}
