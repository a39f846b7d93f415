package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
)

// Structured logging for the service spine: NewLogger builds a slog
// logger in the daemon's chosen wire format, and the request-ID
// helpers correlate every log line a request (or job) produces.
// Handlers stamp a request ID into the context with WithRequestID;
// ContextHandler injects it into every record logged under that
// context, so `grep request_id=...` reconstructs one request's story
// across middleware, scheduler, and executor lines.

type ctxKey int

const requestIDKey ctxKey = 0

var reqCounter atomic.Uint64

// NextRequestID returns a process-unique request ID (monotone counter,
// not random: deterministic under test and collision-free by
// construction within one process).
func NextRequestID() string {
	return fmt.Sprintf("r%08d", reqCounter.Add(1))
}

// WithRequestID stamps a request/job correlation ID into the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the correlation ID stamped by WithRequestID, or
// "" if none.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// ContextHandler is a slog.Handler wrapper that appends a request_id
// attribute when the logging context carries one.
type ContextHandler struct {
	inner slog.Handler
}

// NewContextHandler wraps inner with request-ID injection.
func NewContextHandler(inner slog.Handler) *ContextHandler {
	return &ContextHandler{inner: inner}
}

// Enabled implements slog.Handler.
func (h *ContextHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

// Handle implements slog.Handler.
func (h *ContextHandler) Handle(ctx context.Context, rec slog.Record) error {
	if id := RequestID(ctx); id != "" {
		rec = rec.Clone()
		rec.AddAttrs(slog.String("request_id", id))
	}
	return h.inner.Handle(ctx, rec)
}

// WithAttrs implements slog.Handler.
func (h *ContextHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &ContextHandler{inner: h.inner.WithAttrs(attrs)}
}

// WithGroup implements slog.Handler.
func (h *ContextHandler) WithGroup(name string) slog.Handler {
	return &ContextHandler{inner: h.inner.WithGroup(name)}
}

// NewLogger builds the spine's logger: format is "json" or "text"
// (the -log-format flag's values), level one of debug/info/warn/error
// (empty means info). The handler is wrapped for request-ID injection.
// Unknown formats or levels are an error so the flag surface fails
// fast rather than logging in a surprise shape.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "", "info":
		lvl = slog.LevelInfo
	case "debug":
		lvl = slog.LevelDebug
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var inner slog.Handler
	switch format {
	case "json":
		inner = slog.NewJSONHandler(w, opts)
	case "", "text":
		inner = slog.NewTextHandler(w, opts)
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want json|text)", format)
	}
	return slog.New(NewContextHandler(inner)), nil
}

// OrDiscard returns l, or a logger that drops every record when l is
// nil — the logging half of "instrumentation is optional": subsystems
// resolve their optional logger once at construction and then log
// unconditionally.
func OrDiscard(l *slog.Logger) *slog.Logger {
	if l == nil {
		return slog.New(slog.DiscardHandler)
	}
	return l
}
