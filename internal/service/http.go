package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"rumor/internal/api"
	"rumor/internal/obs"
)

// Server exposes the scheduler as the resource-oriented v1 HTTP API:
//
//	POST   /v1/jobs              submit a JobSpec; 202 with the job status.
//	                             An Idempotency-Key header makes the
//	                             submit replayable: a resubmit with the
//	                             same key and spec returns the original
//	                             job (200, Idempotency-Replayed: true).
//	GET    /v1/jobs              list job statuses; ?state= filters,
//	                             ?limit= and ?after=<job-id> paginate
//	GET    /v1/jobs/{id}         one job's status
//	GET    /v1/jobs/{id}/results stream results as NDJSON, in canonical
//	                             cell order, as cells complete. The
//	                             stream is resumable: ?after=<cell-index>
//	                             (or a Last-Event-ID header) restarts it
//	                             just past the last row received, served
//	                             from the job's completed results without
//	                             recomputation.
//	GET    /v1/jobs/{id}/events  Server-Sent Events push: a "state"
//	                             event per job-state transition and a
//	                             "cell" event per completion (SSE id =
//	                             cell index, so standard Last-Event-ID
//	                             reconnects resume exactly). A failed or
//	                             cancelled job ends with an "error" event.
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/cache             cache-tier stats (LRU + disk store)
//	GET    /healthz              liveness
//	GET    /metrics              Prometheus text exposition (only with
//	                             WithObservability)
//
// Additional resources (the experiment suite) mount versioned subtrees
// via Mount. Every error response is the structured envelope of
// internal/api, with a stable machine-readable code; backpressure maps
// to HTTP as 429 + Retry-After (code "queue_full").
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
	obs   *Observability // never nil; without a registry the middleware is bypassed
}

// ServerOption customises NewServer.
type ServerOption func(*Server)

// WithObservability attaches the operability layer: GET /metrics serves
// o's registry as Prometheus text, every request is measured (duration,
// status, in-flight, active streams) and logged with a correlation ID.
// Without this option the server behaves exactly as before the layer
// existed.
func WithObservability(o *Observability) ServerOption {
	return func(s *Server) { s.obs = o }
}

// NewServer wraps the scheduler in the HTTP API.
func NewServer(sched *Scheduler, opts ...ServerOption) *Server {
	s := &Server{sched: sched, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(s)
	}
	s.obs = s.obs.orOff()
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	s.mux.HandleFunc("GET /v1/jobs/{id}/results", s.results)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	s.mux.HandleFunc("GET /v1/cache", s.cache)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	if s.obs.Reg != nil {
		s.mux.Handle("GET /metrics", obs.Handler(s.obs.Reg))
	}
	return s
}

// ServeHTTP implements http.Handler. With observability attached it is
// the instrumentation middleware: request-ID correlation, per-route
// duration and status counters, the in-flight gauge, and one access log
// line per request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.obs.Reg == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	id := r.Header.Get(api.RequestIDHeader)
	if id == "" {
		id = obs.NextRequestID()
	}
	w.Header().Set(api.RequestIDHeader, id)
	r = r.WithContext(obs.WithRequestID(r.Context(), id))
	// The route label is the mux pattern (e.g. "GET /v1/jobs/{id}"), not
	// the raw path — raw paths would explode label cardinality with every
	// job ID.
	route := "unmatched"
	if _, pattern := s.mux.Handler(r); pattern != "" {
		route = pattern
	}
	s.obs.httpInFlight.Inc()
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)
	s.obs.httpInFlight.Dec()
	elapsed := time.Since(start)
	s.obs.httpRequests.With(route, r.Method, strconv.Itoa(sw.status())).Inc()
	s.obs.httpDuration.With(route).Observe(elapsed.Seconds())
	s.obs.Log.InfoContext(r.Context(), "http request",
		"method", r.Method, "path", r.URL.Path, "route", route,
		"status", sw.status(), "duration_ms", float64(elapsed.Microseconds())/1000)
}

// statusWriter records the response status for the metrics middleware.
// It implements http.Flusher unconditionally (delegating when the
// underlying writer supports it) because the streaming handlers detect
// flush support through this wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// status returns the recorded status, defaulting to 200 for handlers
// that never called WriteHeader.
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// Mount attaches a handler under the versioned resource /v1/{resource}:
// both the exact path and its subtree route to h, which does its own
// method and sub-path matching (typically with its own ServeMux). It
// exists so packages layered above the service (e.g. the experiment
// suite's /v1/experiments) can extend the API without this package
// importing them — while keeping every route under the /v1 version
// prefix, rather than the open-ended HandleFunc escape hatch this
// replaces.
func (s *Server) Mount(resource string, h http.Handler) {
	s.mux.Handle("/v1/"+resource, h)
	s.mux.Handle("/v1/"+resource+"/", h)
}

// ErrorResponse maps a scheduler error to its HTTP status and stable
// API code. Mounted resource handlers (the experiment endpoints) share
// it so one scheduler error renders identically on every route.
func ErrorResponse(err error) (status int, code string) {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, api.CodeQueueFull
	case errors.Is(err, ErrJobTooLarge):
		return http.StatusBadRequest, api.CodeJobTooLarge
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable, api.CodeShuttingDown
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound, api.CodeJobNotFound
	case errors.Is(err, ErrIdempotencyMismatch):
		return http.StatusConflict, api.CodeIdempotencyMismatch
	case errors.Is(err, errCellTooLarge):
		return http.StatusBadRequest, api.CodeCellTooLarge
	case errors.Is(err, ErrBadSpec):
		return http.StatusBadRequest, api.CodeInvalidSpec
	default:
		return http.StatusInternalServerError, api.CodeInternal
	}
}

// WriteSchedulerError renders err through ErrorResponse, adding
// Retry-After on backpressure.
func WriteSchedulerError(w http.ResponseWriter, err error) {
	status, code := ErrorResponse(err)
	if code == api.CodeQueueFull {
		w.Header().Set("Retry-After", "1")
	}
	api.WriteError(w, status, code, err.Error())
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	body, readErr := io.ReadAll(http.MaxBytesReader(w, r.Body, api.MaxRequestBytes))
	var spec JobSpec
	if err := decodeJobBody(body, readErr, &spec); err != nil {
		api.WriteDecodeError(w, "job spec", err)
		return
	}
	job, replayed, err := s.sched.SubmitIdempotent(r.Context(), r.Header.Get(api.IdempotencyKeyHeader), spec)
	if err != nil {
		WriteSchedulerError(w, err)
		return
	}
	if replayed {
		w.Header().Set(api.IdempotencyReplayedHeader, "true")
		api.WriteJSON(w, http.StatusOK, job.Status())
		return
	}
	api.WriteJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var f JobsFilter
	if raw := q.Get("state"); raw != "" {
		switch st := JobState(raw); st {
		case JobQueued, JobRunning, JobDone, JobFailed, JobCancelled:
			f.State = st
		default:
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest,
				fmt.Sprintf("unknown state %q (want queued, running, done, failed, cancelled)", raw))
			return
		}
	}
	if raw := q.Get("limit"); raw != "" {
		limit, err := strconv.Atoi(raw)
		if err != nil || limit < 0 {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest,
				fmt.Sprintf("limit %q is not a non-negative integer", raw))
			return
		}
		f.Limit = limit
	}
	if raw := q.Get("after"); raw != "" {
		seq, err := ParseJobSeq(raw)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest,
				fmt.Sprintf("after cursor %q is not a job ID", raw))
			return
		}
		f.AfterSeq = seq
	}
	api.WriteJSON(w, http.StatusOK, s.sched.JobsFiltered(f))
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, err := s.sched.Job(r.PathValue("id"))
	if err != nil {
		WriteSchedulerError(w, err)
		return nil, false
	}
	return job, true
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		api.WriteJSON(w, http.StatusOK, job.Status())
	}
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	job.Cancel()
	api.WriteJSON(w, http.StatusOK, job.Status())
}

// cursor reads the stream-resume cursor: the index of the last cell the
// client already has (?after= wins over the Last-Event-ID header), or
// -1 to start from the beginning. ok is false after a malformed or
// out-of-range cursor has been rejected.
func cursor(w http.ResponseWriter, r *http.Request, numCells int) (after int, ok bool) {
	raw := r.URL.Query().Get("after")
	if raw == "" {
		raw = r.Header.Get(api.LastEventIDHeader)
	}
	if raw == "" {
		return -1, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < -1 || v >= numCells {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Sprintf("cursor %q is not a cell index in [-1, %d)", raw, numCells))
		return 0, false
	}
	return v, true
}

// terminalCode classifies a terminated job for its stream-ending error
// row or event.
func terminalCode(state JobState) string {
	if state == JobCancelled {
		return api.CodeJobCancelled
	}
	return api.CodeJobFailed
}

// results serves GET /v1/jobs/{id}/results: StreamResults from the
// request's resume cursor. A client that disconnects mid-stream just
// ends the handler (the job keeps running — streaming is observation,
// not execution).
func (s *Server) results(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	after, ok := cursor(w, r, job.NumCells())
	if !ok {
		return
	}
	s.StreamResults(w, r, job, after)
}

// StreamResults answers r with the job's cell results after index after
// as NDJSON in canonical cell order, flushing once per run of ready
// rows — before it waits for the next cell — so clients see cells as
// they complete, and counts the stream on the active-streams gauge
// while it lasts. Because cell order and cell contents are pure
// functions of the job spec, the streamed bytes are identical across
// runs, worker counts, and cache states — and a resumed stream is a
// byte-exact suffix of the full one, served from the job's completed
// results without recomputation.
//
// It returns the results it streamed and whether it reached the job's
// last cell; the caller may then append rows of its own (the experiment
// endpoint's outcome row). Otherwise the stream is over: the client went
// away, or the job failed or was cancelled and the one error-envelope
// row that ends such a stream has been written.
func (s *Server) StreamResults(w http.ResponseWriter, r *http.Request, job *Job, after int) ([]*CellResult, bool) {
	defer s.obs.trackStream("ndjson")()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := flushFunc(w)
	results := make([]*CellResult, 0, job.NumCells()-after-1)
	var row []byte
	for ready, err := range job.batches(r.Context(), after) {
		if err != nil {
			if r.Context().Err() == nil { // else the client went away; nobody is reading
				_ = api.EncodeRow(w, api.Envelope{Error: &api.Error{
					Code: terminalCode(job.Status().State), Message: err.Error(),
				}})
				flush()
			}
			return results, false
		}
		for _, res := range ready {
			var ok bool
			var err error
			if row, ok = appendResult(row[:0], res); ok {
				row = append(row, '\n')
				_, err = w.Write(row)
			} else {
				err = api.EncodeRow(w, res)
			}
			if err != nil {
				return results, false // client went away
			}
			results = append(results, res)
		}
		flush()
	}
	return results, true
}

// flushFunc returns w's Flush, or a no-op if w cannot flush.
func flushFunc(w http.ResponseWriter) func() {
	if f, ok := w.(http.Flusher); ok {
		return f.Flush
	}
	return func() {}
}

// events pushes the job over Server-Sent Events: one "cell" event per
// completion in canonical cell order (the SSE id is the cell index, so
// a standard EventSource reconnect with Last-Event-ID resumes exactly
// after the last event delivered), and one "state" event per job-state
// transition. The stream ends after the terminal state event — plus an
// "error" event when the job failed or was cancelled.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	after, ok := cursor(w, r, job.NumCells())
	if !ok {
		return
	}
	defer s.obs.trackStream("sse")()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flush := flushFunc(w)
	next := after + 1
	var lastState JobState
	var data []byte
	for {
		ready, st, changed := job.Watch(next)
		// Every cell completed so far, in canonical order. The result
		// codec, or else the canonical api.Marshal, keeps an SSE cell
		// payload bit-identical to the same cell's NDJSON results row.
		for _, res := range ready {
			if data, ok = appendResult(data[:0], res); !ok {
				var err error
				if data, err = api.Marshal(res); err != nil {
					return
				}
			}
			if err := api.WriteSSE(w, api.EventCell, strconv.Itoa(next), data); err != nil {
				return // client went away
			}
			next++
		}
		if st.State != lastState {
			lastState = st.State
			data, err := api.Marshal(st)
			if err != nil {
				return
			}
			if err := api.WriteSSE(w, api.EventState, "", data); err != nil {
				return
			}
		}
		if st.State.terminal() {
			// The snapshot was terminal, so ready held every cell that
			// will ever complete.
			if st.State != JobDone {
				data, _ := api.Marshal(api.Envelope{Error: &api.Error{
					Code: terminalCode(st.State), Message: st.Error,
				}})
				_ = api.WriteSSE(w, api.EventError, "", data)
			}
			flush()
			return
		}
		flush()
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	h := api.Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.sched.started).Seconds(),
		GoVersion:     runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				h.Revision = kv.Value
			case "vcs.modified":
				h.Dirty = kv.Value == "true"
			}
		}
	}
	api.WriteJSON(w, http.StatusOK, h)
}

// cache reports the cache tiers: LRU size and hit/miss counters, the
// disk tier's hit/promotion split, and the persistent store's segment
// and compaction counters when a store is attached.
func (s *Server) cache(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.sched.CacheStats())
}
