package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestErrorCodesGolden pins the exact code strings: clients switch on
// them (the SDK retries on queue_full, classifies terminal streams by
// job_failed/job_cancelled), so a renamed or reordered code is a
// breaking API change. If this test fails, you are changing the wire
// contract — add a new code instead of editing an existing one.
func TestErrorCodesGolden(t *testing.T) {
	golden := []string{
		"bad_request",
		"invalid_spec",
		"queue_full",
		"job_too_large",
		"request_too_large",
		"cell_too_large",
		"shutting_down",
		"job_not_found",
		"experiment_not_found",
		"idempotency_mismatch",
		"job_failed",
		"job_cancelled",
		"internal",
	}
	got := Codes()
	if len(got) != len(golden) {
		t.Fatalf("Codes() lists %d codes, golden set has %d:\ngot:    %v\ngolden: %v",
			len(got), len(golden), got, golden)
	}
	for i, want := range golden {
		if got[i] != want {
			t.Errorf("Codes()[%d] = %q, golden %q", i, got[i], want)
		}
	}
	// Each constant must also individually match its pinned literal, so
	// a reorder inside Codes() cannot mask a renamed constant.
	pinned := map[string]string{
		CodeBadRequest:          "bad_request",
		CodeInvalidSpec:         "invalid_spec",
		CodeQueueFull:           "queue_full",
		CodeJobTooLarge:         "job_too_large",
		CodeRequestTooLarge:     "request_too_large",
		CodeCellTooLarge:        "cell_too_large",
		CodeShuttingDown:        "shutting_down",
		CodeJobNotFound:         "job_not_found",
		CodeExperimentNotFound:  "experiment_not_found",
		CodeIdempotencyMismatch: "idempotency_mismatch",
		CodeJobFailed:           "job_failed",
		CodeJobCancelled:        "job_cancelled",
		CodeInternal:            "internal",
	}
	for c, want := range pinned {
		if c != want {
			t.Errorf("code constant = %q, pinned literal %q", c, want)
		}
	}
}

// TestErrorEnvelopeGolden pins the envelope's exact JSON shape — the
// bytes a client sees on the wire.
func TestErrorEnvelopeGolden(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, 429, CodeQueueFull, "service: queue full")
	const golden = `{"error":{"code":"queue_full","message":"service: queue full"}}` + "\n"
	if body := rec.Body.String(); body != golden {
		t.Errorf("envelope bytes:\ngot:    %q\ngolden: %q", body, golden)
	}
	if rec.Code != 429 {
		t.Errorf("status = %d, want 429", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}

	// Round trip: the envelope decodes back into the same Error, and
	// IsCode classifies it (including through wrapping).
	var env Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != CodeQueueFull || env.Error.Message != "service: queue full" {
		t.Fatalf("decoded envelope = %+v", env.Error)
	}
	wrapped := fmt.Errorf("submitting job: %w", env.Error)
	if !IsCode(wrapped, CodeQueueFull) {
		t.Error("IsCode missed a wrapped envelope error")
	}
	if IsCode(wrapped, CodeJobNotFound) {
		t.Error("IsCode matched the wrong code")
	}
	if IsCode(errors.New("plain"), CodeQueueFull) {
		t.Error("IsCode matched a non-API error")
	}
}

// TestWriteSSEGolden pins the server-sent-event framing.
func TestWriteSSEGolden(t *testing.T) {
	var b bytes.Buffer
	if err := WriteSSE(&b, EventCell, "4", []byte(`{"index":4}`)); err != nil {
		t.Fatal(err)
	}
	const golden = "event: cell\nid: 4\ndata: {\"index\":4}\n\n"
	if b.String() != golden {
		t.Errorf("SSE frame:\ngot:    %q\ngolden: %q", b.String(), golden)
	}
	b.Reset()
	if err := WriteSSE(&b, EventState, "", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); strings.Contains(got, "id:") {
		t.Errorf("empty id emitted an id field: %q", got)
	}
}
