package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rumor/internal/api"
	"rumor/internal/graph"
	"rumor/internal/obs"
)

func newTestServer(t *testing.T, cfg SchedulerConfig) (*httptest.Server, *Scheduler) {
	t.Helper()
	sched := NewScheduler(cfg)
	srv := httptest.NewServer(NewServer(sched, WithObservability(cfg.Obs)))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
	})
	return srv, sched
}

func submitJob(t *testing.T, url string, spec JobSpec) JobStatus {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// streamResults reads the NDJSON stream to EOF and returns the raw
// lines.
func streamResults(t *testing.T, url, id string) []string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/results", url, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// End-to-end: submit over HTTP, poll status, stream NDJSON, observe
// cache hits on resubmission, byte-identical streams.
func TestHTTPSubmitStreamAndCache(t *testing.T) {
	srv, _ := newTestServer(t, SchedulerConfig{
		Workers: 4, Results: NewResultCache(128), Graphs: NewGraphCache(16),
	})
	spec := gridSpec()
	st := submitJob(t, srv.URL, spec)
	if st.ID == "" || st.CellsTotal != 8 {
		t.Fatalf("submit returned %+v", st)
	}

	lines := streamResults(t, srv.URL, st.ID)
	if len(lines) != 8 {
		t.Fatalf("streamed %d rows, want 8", len(lines))
	}
	for i, line := range lines {
		var row CellResult
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("row %d not valid JSON: %v", i, err)
		}
		if row.Index != i {
			t.Errorf("row %d has index %d: stream out of canonical order", i, row.Index)
		}
		if row.Summary.N != spec.Trials {
			t.Errorf("row %d has %d trials, want %d", i, row.Summary.N, spec.Trials)
		}
	}

	// Status endpoint reflects completion.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var done JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&done); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if done.State != JobDone || done.CellsDone != 8 {
		t.Fatalf("status after stream = %+v", done)
	}

	// Resubmission: served from cache, byte-identical stream.
	st2 := submitJob(t, srv.URL, spec)
	lines2 := streamResults(t, srv.URL, st2.ID)
	if strings.Join(lines, "\n") != strings.Join(lines2, "\n") {
		t.Error("streams of identical specs differ")
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	var warm JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&warm); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if warm.CacheHits != 8 {
		t.Errorf("warm job cache hits = %d, want 8", warm.CacheHits)
	}
}

func TestHTTPBadSpecRejected(t *testing.T) {
	srv, _ := newTestServer(t, SchedulerConfig{Workers: 1})
	for _, body := range []string{
		`{"families":["nope"],"sizes":[8],"protocols":["push"],"timings":["sync"],"trials":1}`,
		`{"unknown_field":1}`,
		`not json`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestHTTPBackpressure(t *testing.T) {
	srv, _ := newTestServer(t, SchedulerConfig{Workers: 1, QueueLimit: 10})
	// A job bigger than the whole queue is a permanent 400, so clients
	// do not retry something that can never be accepted.
	big, _ := json.Marshal(gridSpec()) // 8 cells
	tooBig := JobSpec{
		Families:  []string{"complete", "star"},
		Sizes:     []int{16, 32, 64},
		Protocols: []string{"push-pull"},
		Timings:   []string{TimingSync, TimingAsync},
		Trials:    5,
		Seed:      1,
	} // 12 cells > limit 10
	body, _ := json.Marshal(tooBig)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("too-large job: status = %d, want 400", resp.StatusCode)
	}
	// A full queue is transient: 429 + Retry-After. Occupy the queue
	// with a slow job first.
	slow := JobSpec{
		Families:  []string{"cycle"},
		Sizes:     []int{2000, 2500, 3000, 3500},
		Protocols: []string{"push-pull"},
		Timings:   []string{TimingSync, TimingAsync},
		Trials:    200,
		Seed:      1,
	}
	slowBody, _ := json.Marshal(slow)
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(slowBody))
	if err != nil {
		t.Fatal(err)
	}
	var slowSt JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&slowSt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slow job: status = %d", resp.StatusCode)
	}
	defer func() { // don't make the cleanup drain grind the slow cells
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+slowSt.ID, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestHTTPCancel(t *testing.T) {
	srv, _ := newTestServer(t, SchedulerConfig{Workers: 1})
	// A deliberately slow job (cycle spreading is Θ(n) rounds) so the
	// cancel lands while cells are still pending.
	spec := JobSpec{
		Families:  []string{"cycle"},
		Sizes:     []int{2000, 3000},
		Protocols: []string{"push-pull"},
		Timings:   []string{TimingSync, TimingAsync},
		Trials:    300,
		Seed:      1,
	}
	st := submitJob(t, srv.URL, spec)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != JobCancelled {
		t.Fatalf("state after DELETE = %s", got.State)
	}
	// The results stream of a cancelled job ends with an error-envelope
	// row carrying the stable job_cancelled code.
	lines := streamResults(t, srv.URL, st.ID)
	if len(lines) == 0 {
		t.Fatal("no stream output for cancelled job")
	}
	last := lines[len(lines)-1]
	var env api.Envelope
	if err := json.Unmarshal([]byte(last), &env); err != nil || env.Error == nil {
		t.Fatalf("last row %q is not an error row", last)
	}
	if env.Error.Code != api.CodeJobCancelled {
		t.Errorf("cancelled stream ended with code %q, want %q", env.Error.Code, api.CodeJobCancelled)
	}
}

func TestHTTPUnknownJob404(t *testing.T) {
	srv, _ := newTestServer(t, SchedulerConfig{Workers: 1})
	for _, path := range []string{"/v1/jobs/job-999", "/v1/jobs/job-999/results"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	srv, _ := newTestServer(t, SchedulerConfig{
		Workers: 2, Results: NewResultCache(16), Graphs: NewGraphCache(4),
		Obs: NewObservability(obs.NewRegistry(), nil),
	})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	spec := gridSpec()
	st := submitJob(t, srv.URL, spec)
	_ = streamResults(t, srv.URL, st.ID) // wait for completion

	// GET /metrics is the one metrics endpoint: the scheduler snapshot
	// the retired /metricsz JSON carried is all in the scrape.
	sc := scrapeMetrics(t, srv.URL)
	if n := sumWhere(sc, "rumor_scheduler_cells_total", map[string]string{"outcome": "computed"}); n != 8 {
		t.Errorf("computed cells = %v, want 8", n)
	}
	if n, _ := sc.Value("rumor_scheduler_jobs", map[string]string{"state": "done"}); n != 1 {
		t.Errorf("jobs{state=done} = %v, want 1", n)
	}
	if n, ok := sc.Value("rumor_cache_misses_total", map[string]string{"cache": "result"}); !ok || n != 8 {
		t.Errorf("result cache misses = %v, %v, want 8", n, ok)
	}
	if n := sumWhere(sc, "rumor_cache_hits_total", map[string]string{"cache": "graph"}); n == 0 {
		t.Error("graph cache saw no hits across timing pairs")
	}
	resp, err = http.Get(srv.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("retired /metricsz = %d, want 404", resp.StatusCode)
	}

	// GET /v1/cache with a plain (single-tier) result cache: the tier
	// fields stay omitted, the core counters are present.
	resp, err = http.Get(srv.URL + "/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap CacheSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.ResultCache == nil || snap.GraphCache == nil {
		t.Fatalf("/v1/cache missing caches: %+v", snap)
	}
	if snap.ResultCache.Size == 0 || snap.ResultCache.Misses == 0 {
		t.Errorf("/v1/cache result tier counters empty: %+v", snap.ResultCache)
	}
	if snap.ResultCache.Disk != nil {
		t.Errorf("plain LRU reports a disk tier: %+v", snap.ResultCache.Disk)
	}
}

// Streaming while the job is still running: the handler must deliver
// rows incrementally, not after the job finishes. We submit to a
// 1-worker scheduler and assert the first row arrives while the job is
// still running (state != done at first-row time).
func TestHTTPStreamsWhileRunning(t *testing.T) {
	srv, sched := newTestServer(t, SchedulerConfig{Workers: 1})
	spec := gridSpec()
	spec.Sizes = []int{128, 256}
	spec.Trials = 40
	st := submitJob(t, srv.URL, spec)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		t.Fatalf("no first row: %v", sc.Err())
	}
	job, err := sched.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	stateAtFirstRow := job.Status().State
	rows := 1
	for sc.Scan() {
		rows++
	}
	if rows != job.NumCells() {
		t.Fatalf("streamed %d rows, want %d", rows, job.NumCells())
	}
	if stateAtFirstRow == JobDone {
		t.Logf("note: job already done at first row (fast machine); incremental delivery not observable")
	}
}

// The flush-gate test kind: the cell with TrialSeed 0 completes at once,
// every other cell parks until the test opens the gate (or its run is
// cancelled). Registered once; each test swaps in a fresh gate.
var (
	flushGateMu   sync.Mutex
	flushGate     chan struct{}
	flushKindOnce sync.Once
)

// armFlushGateKind installs a fresh gate and returns its idempotent
// opener.
func armFlushGateKind() (open func()) {
	flushKindOnce.Do(func() {
		MustRegisterKind(CellKind{
			Name: "flush-gate",
			Run: func(ctx context.Context, cell CellSpec, _ *graph.Graph, _ int) (*KindResult, error) {
				flushGateMu.Lock()
				gate := flushGate
				flushGateMu.Unlock()
				if cell.TrialSeed != 0 {
					select {
					case <-gate:
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				return &KindResult{Times: []float64{1}}, nil
			},
		})
	})
	gate := make(chan struct{})
	flushGateMu.Lock()
	flushGate = gate
	flushGateMu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// TestHTTPResultsFlushBeforeWaiting: the NDJSON handler must flush the
// rows it has written before it blocks for the next cell. Cell 1 cannot
// finish until the reader has decoded row 0, so a handler that keeps
// row 0 in its write buffer while it waits wedges the stream and the
// test times out.
func TestHTTPResultsFlushBeforeWaiting(t *testing.T) {
	srv, _ := newTestServer(t, SchedulerConfig{Workers: 1})
	open := armFlushGateKind()
	t.Cleanup(open) // runs before the server's cleanup, so no cell stays parked
	st := submitJob(t, srv.URL, JobSpec{CellList: []CellSpec{
		{Kind: "flush-gate", Trials: 1, TrialSeed: 0},
		{Kind: "flush-gate", Trials: 1, TrialSeed: 1},
	}})

	// The reader goroutine does the GET too: unflushed, even the status
	// line stays in the handler's buffer.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := make(chan CellResult, 2) // one slot per cell: the reader never blocks on a test that stopped reading
	go func() {
		defer close(rows)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/jobs/"+st.ID+"/results", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var res CellResult
			if json.Unmarshal(sc.Bytes(), &res) != nil {
				return
			}
			rows <- res
		}
	}()
	if res := recv(t, rows, "row 0 while cell 1 is parked"); res.Index != 0 {
		t.Fatalf("first row has index %d, want 0", res.Index)
	}
	open()
	if res := recv(t, rows, "row 1"); res.Index != 1 {
		t.Fatalf("second row has index %d, want 1", res.Index)
	}
	if res, ok := <-rows; ok {
		t.Fatalf("unexpected row after the last cell: %+v", res)
	}
}

// decodeEnvelope reads a non-2xx response body's error envelope.
func decodeEnvelope(t *testing.T, resp *http.Response) *api.Error {
	t.Helper()
	defer resp.Body.Close()
	var env api.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
		t.Fatalf("response is not an error envelope: %v", err)
	}
	return env.Error
}

// TestSubmitBodyLimit: POST /v1/jobs stops reading at
// api.MaxRequestBytes and says so with its own code — a body one byte
// over is 413 request_too_large and enqueues nothing, the same spec
// padded to exactly the limit is accepted.
func TestSubmitBodyLimit(t *testing.T) {
	srv, sched := newTestServer(t, SchedulerConfig{Workers: 1, QueueLimit: 10})
	const spec = `{"families":["complete"],"sizes":[8],"protocols":["push"],"timings":["sync"],"trials":1}`
	post := func(padding int) *http.Response {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(strings.Repeat(" ", padding)+spec))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post(api.MaxRequestBytes - len(spec) + 1)
	if e := decodeEnvelope(t, resp); resp.StatusCode != http.StatusRequestEntityTooLarge || e.Code != api.CodeRequestTooLarge {
		t.Errorf("oversized body: %d %q %q", resp.StatusCode, e.Code, e.Message)
	}
	if jobs := sched.JobsFiltered(JobsFilter{}); len(jobs) != 0 {
		t.Errorf("oversized body enqueued %d jobs", len(jobs))
	}
	resp = post(api.MaxRequestBytes - len(spec))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("body of exactly the limit: %d, want 202", resp.StatusCode)
	}
}

// TestHTTPErrorEnvelopeCodes: every failure mode answers with the
// structured envelope and its stable code — the contract the SDK's
// error classification is built on.
func TestHTTPErrorEnvelopeCodes(t *testing.T) {
	srv, sched := newTestServer(t, SchedulerConfig{Workers: 1, QueueLimit: 10})

	post := func(body string, header map[string]string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		for k, v := range header {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Malformed request body: bad_request.
	resp := post(`not json`, nil)
	if e := decodeEnvelope(t, resp); resp.StatusCode != 400 || e.Code != api.CodeBadRequest {
		t.Errorf("malformed body: %d %q", resp.StatusCode, e.Code)
	}
	// Semantically invalid spec: invalid_spec.
	resp = post(`{"families":["nope"],"sizes":[8],"protocols":["push"],"timings":["sync"],"trials":1}`, nil)
	if e := decodeEnvelope(t, resp); resp.StatusCode != 400 || e.Code != api.CodeInvalidSpec {
		t.Errorf("invalid spec: %d %q", resp.StatusCode, e.Code)
	}
	// A ppx cell with crashes is the crash-free measurement under a
	// second key: invalid_spec.
	resp = post(`{"cells":[{"family":"hypercube","n":16,"protocol":"push-pull","timing":"sync","variant":"ppx","crashes":[{"node":1,"time":1}],"trials":1}]}`, nil)
	if e := decodeEnvelope(t, resp); resp.StatusCode != 400 || e.Code != api.CodeInvalidSpec {
		t.Errorf("variant with crashes: %d %q", resp.StatusCode, e.Code)
	}
	// Oversized job: job_too_large.
	big, _ := json.Marshal(JobSpec{
		Families:  []string{"complete", "star"},
		Sizes:     []int{16, 32, 64},
		Protocols: []string{"push-pull"},
		Timings:   []string{TimingSync, TimingAsync},
		Trials:    5, Seed: 1,
	}) // 12 cells > limit 10
	resp = post(string(big), nil)
	if e := decodeEnvelope(t, resp); resp.StatusCode != 400 || e.Code != api.CodeJobTooLarge {
		t.Errorf("oversized job: %d %q", resp.StatusCode, e.Code)
	}
	// A cell over the admission limits — ROADMAP's n = 10^9 in a grid, a
	// 10^9-trial sample in a cell list, a complete graph at n = 10^8
	// (~36 PiB of adjacency): cell_too_large, nothing queued.
	for _, body := range []string{
		`{"families":["complete"],"sizes":[8,1000000000],"protocols":["push"],"timings":["sync"],"trials":1}`,
		`{"cells":[{"family":"complete","n":8,"protocol":"push","timing":"sync","trials":1000000000}]}`,
		`{"cells":[{"family":"complete","n":100000000,"protocol":"push","timing":"sync","trials":1}]}`,
	} {
		resp = post(body, nil)
		if e := decodeEnvelope(t, resp); resp.StatusCode != 400 || e.Code != api.CodeCellTooLarge {
			t.Errorf("%s: %d %q %q", body, resp.StatusCode, e.Code, e.Message)
		}
	}
	if jobs := sched.JobsFiltered(JobsFilter{}); len(jobs) != 0 {
		t.Errorf("rejected specs enqueued %d jobs", len(jobs))
	}
	// Unknown job: job_not_found.
	for _, path := range []string{"/v1/jobs/job-999", "/v1/jobs/job-999/results", "/v1/jobs/job-999/events"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if e := decodeEnvelope(t, resp); resp.StatusCode != 404 || e.Code != api.CodeJobNotFound {
			t.Errorf("%s: %d %q", path, resp.StatusCode, e.Code)
		}
	}
	// Bad cursor: bad_request.
	st := submitJob(t, srv.URL, gridSpec())
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/results?after=banana")
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeEnvelope(t, resp); resp.StatusCode != 400 || e.Code != api.CodeBadRequest {
		t.Errorf("bad cursor: %d %q", resp.StatusCode, e.Code)
	}
}

// TestHTTPIdempotentSubmit: an Idempotency-Key makes POST /v1/jobs
// replayable — the same key + spec returns the original job (200,
// Idempotency-Replayed), a reused key with a different spec is a 409
// idempotency_mismatch.
func TestHTTPIdempotentSubmit(t *testing.T) {
	srv, _ := newTestServer(t, SchedulerConfig{Workers: 2})
	body, _ := json.Marshal(gridSpec())

	post := func(key string, body []byte) (*http.Response, JobStatus) {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(api.IdempotencyKeyHeader, key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		if resp.StatusCode < 400 {
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
		}
		return resp, st
	}

	resp, first := post("key-1", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || first.ID == "" {
		t.Fatalf("fresh submit: %d %+v", resp.StatusCode, first)
	}
	resp, replay := post("key-1", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || replay.ID != first.ID {
		t.Fatalf("replay: %d, job %q (want 200 and %q)", resp.StatusCode, replay.ID, first.ID)
	}
	if resp.Header.Get(api.IdempotencyReplayedHeader) != "true" {
		t.Error("replay response missing Idempotency-Replayed header")
	}
	// Same key, different spec: 409 with idempotency_mismatch.
	other := gridSpec()
	other.Seed = 999
	otherBody, _ := json.Marshal(other)
	resp, _ = post("key-1", otherBody)
	if e := decodeEnvelope(t, resp); resp.StatusCode != http.StatusConflict || e.Code != api.CodeIdempotencyMismatch {
		t.Errorf("mismatched replay: %d %q", resp.StatusCode, e.Code)
	}
	// A different key with the different spec enqueues fresh.
	resp, second := post("key-2", otherBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || second.ID == first.ID {
		t.Fatalf("fresh key: %d %+v", resp.StatusCode, second)
	}
	// Both jobs stream identically whether reached fresh or by replay.
	if a, b := streamResults(t, srv.URL, first.ID), streamResults(t, srv.URL, replay.ID); strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Error("replayed job streamed different bytes")
	}
}

// TestHTTPResultsResumeCursor: ?after= (or Last-Event-ID) resumes the
// results stream exactly where it left off: the resumed suffix plus
// the consumed prefix is byte-identical to the unbroken stream, and
// the resume is served from completed results (no recomputation).
func TestHTTPResultsResumeCursor(t *testing.T) {
	srv, sched := newTestServer(t, SchedulerConfig{Workers: 2})
	st := submitJob(t, srv.URL, gridSpec())
	full := streamResults(t, srv.URL, st.ID)
	if len(full) != 8 {
		t.Fatalf("full stream has %d rows", len(full))
	}
	computed := sched.Metrics().CellsComputed

	// Resume after index 2 via the query parameter.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/results?after=2")
	if err != nil {
		t.Fatal(err)
	}
	suffix, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(full[3:], "\n") + "\n"
	if string(suffix) != want {
		t.Errorf("resumed suffix differs:\ngot:  %q\nwant: %q", suffix, want)
	}

	// Resume via the Last-Event-ID header (the SSE reconnect idiom).
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+st.ID+"/results", nil)
	req.Header.Set(api.LastEventIDHeader, "6")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := full[7] + "\n"; string(tail) != want {
		t.Errorf("Last-Event-ID resume: got %q, want %q", tail, want)
	}

	// ?after=-1 is the explicit from-the-start cursor.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/results?after=-1")
	if err != nil {
		t.Fatal(err)
	}
	whole, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(full, "\n") + "\n"; string(whole) != want {
		t.Error("after=-1 did not replay the whole stream")
	}

	if got := sched.Metrics().CellsComputed; got != computed {
		t.Errorf("resuming recomputed cells: %d -> %d", computed, got)
	}
}

// TestHTTPListFilterAndPagination: GET /v1/jobs?state=&limit=&after=
// narrows and pages the listing.
func TestHTTPListFilterAndPagination(t *testing.T) {
	srv, _ := newTestServer(t, SchedulerConfig{Workers: 2})
	spec := gridSpec()
	var ids []string
	for i := 0; i < 3; i++ {
		s := spec
		s.Seed = uint64(100 + i)
		st := submitJob(t, srv.URL, s)
		ids = append(ids, st.ID)
		_ = streamResults(t, srv.URL, st.ID) // wait until done
	}

	list := func(query string) []JobStatus {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs%s = %d", query, resp.StatusCode)
		}
		var jobs []JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
			t.Fatal(err)
		}
		return jobs
	}

	if jobs := list(""); len(jobs) != 3 {
		t.Fatalf("unfiltered listing has %d jobs", len(jobs))
	}
	if jobs := list("?state=done"); len(jobs) != 3 {
		t.Errorf("state=done lists %d jobs, want 3", len(jobs))
	}
	if jobs := list("?state=running"); len(jobs) != 0 {
		t.Errorf("state=running lists %d jobs, want 0", len(jobs))
	}
	// Page through with limit + after.
	page1 := list("?limit=2")
	if len(page1) != 2 || page1[0].ID != ids[0] || page1[1].ID != ids[1] {
		t.Fatalf("page 1 = %+v", page1)
	}
	page2 := list("?limit=2&after=" + page1[1].ID)
	if len(page2) != 1 || page2[0].ID != ids[2] {
		t.Fatalf("page 2 = %+v", page2)
	}
	if jobs := list("?after=" + ids[2]); len(jobs) != 0 {
		t.Errorf("after last job lists %d jobs", len(jobs))
	}
	// Invalid parameters: 400 bad_request.
	for _, q := range []string{"?state=bogus", "?limit=-1", "?limit=x", "?after=nope"} {
		resp, err := http.Get(srv.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		if e := decodeEnvelope(t, resp); resp.StatusCode != 400 || e.Code != api.CodeBadRequest {
			t.Errorf("%s: %d %q", q, resp.StatusCode, e.Code)
		}
	}
}

// sseEvent is one parsed server-sent event (test-local parser, kept
// independent of the SDK's).
type sseEvent struct {
	event string
	id    string
	data  string
}

func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	dirty := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			if dirty {
				events = append(events, cur)
				cur, dirty = sseEvent{}, false
			}
			continue
		}
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event, dirty = strings.TrimPrefix(line, "event: "), true
		case strings.HasPrefix(line, "id: "):
			cur.id, dirty = strings.TrimPrefix(line, "id: "), true
		case strings.HasPrefix(line, "data: "):
			cur.data, dirty = strings.TrimPrefix(line, "data: "), true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestHTTPEventsSSE: the events endpoint pushes cell completions (in
// canonical order, id = cell index) and state transitions, ends after
// the terminal state, and resumes cleanly from Last-Event-ID.
func TestHTTPEventsSSE(t *testing.T) {
	srv, _ := newTestServer(t, SchedulerConfig{Workers: 1})
	st := submitJob(t, srv.URL, gridSpec())

	// Subscribe while the job runs: we must see every cell event and a
	// terminal done state, then the server must close the stream.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type = %q", ct)
	}
	events := readSSE(t, resp.Body)
	resp.Body.Close()

	var cells []sseEvent
	var states []string
	for _, ev := range events {
		switch ev.event {
		case "cell":
			cells = append(cells, ev)
		case "state":
			var s JobStatus
			if err := json.Unmarshal([]byte(ev.data), &s); err != nil {
				t.Fatalf("state event %q: %v", ev.data, err)
			}
			states = append(states, string(s.State))
		case "error":
			t.Fatalf("unexpected error event: %q", ev.data)
		}
	}
	if len(cells) != 8 {
		t.Fatalf("saw %d cell events, want 8", len(cells))
	}
	for i, ev := range cells {
		if ev.id != fmt.Sprint(i) {
			t.Errorf("cell event %d has id %q", i, ev.id)
		}
		var res CellResult
		if err := json.Unmarshal([]byte(ev.data), &res); err != nil || res.Index != i {
			t.Errorf("cell event %d payload: index %d, err %v", i, res.Index, err)
		}
	}
	if len(states) == 0 || states[len(states)-1] != string(JobDone) {
		t.Fatalf("state events = %v, want terminal done", states)
	}

	// Reconnect with Last-Event-ID: only the cells after the cursor
	// replay, then the terminal state again.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+st.ID+"/events", nil)
	req.Header.Set(api.LastEventIDHeader, "5")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resumed := readSSE(t, resp.Body)
	resp.Body.Close()
	var resumedCells []string
	for _, ev := range resumed {
		if ev.event == "cell" {
			resumedCells = append(resumedCells, ev.id)
		}
	}
	if want := []string{"6", "7"}; strings.Join(resumedCells, ",") != strings.Join(want, ",") {
		t.Errorf("resumed cell ids = %v, want %v", resumedCells, want)
	}

	// A cancelled job's stream ends with an error event.
	slow := JobSpec{
		Families:  []string{"cycle"},
		Sizes:     []int{2000, 3000},
		Protocols: []string{"push-pull"},
		Timings:   []string{TimingSync, TimingAsync},
		Trials:    300,
		Seed:      1,
	}
	slowSt := submitJob(t, srv.URL, slow)
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+slowSt.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + slowSt.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	cancelled := readSSE(t, resp.Body)
	resp.Body.Close()
	if len(cancelled) == 0 {
		t.Fatal("no events for cancelled job")
	}
	last := cancelled[len(cancelled)-1]
	if last.event != "error" {
		t.Fatalf("cancelled job's last event = %q, want error", last.event)
	}
	var env api.Envelope
	if err := json.Unmarshal([]byte(last.data), &env); err != nil || env.Error == nil || env.Error.Code != api.CodeJobCancelled {
		t.Errorf("cancelled error event payload %q", last.data)
	}
}

// TestHTTPMidStreamDisconnect: a client that vanishes mid-results
// leaves nothing wedged — the server observes the context
// cancellation and stops writing, the job runs to completion, the
// worker pool stays free for other jobs, and the full stream remains
// replayable.
func TestHTTPMidStreamDisconnect(t *testing.T) {
	srv, sched := newTestServer(t, SchedulerConfig{Workers: 1})
	spec := gridSpec()
	spec.Sizes = []int{128, 256}
	spec.Trials = 60
	st := submitJob(t, srv.URL, spec)

	// Open the stream with a cancellable request, read one row, vanish.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/jobs/"+st.ID+"/results", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		t.Fatalf("no first row: %v", sc.Err())
	}
	firstRow := sc.Text()
	cancel()
	resp.Body.Close()

	// The job must still run to completion (streaming is observation,
	// not execution).
	job, err := sched.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer waitCancel()
	select {
	case <-job.Terminal():
	case <-waitCtx.Done():
		t.Fatal("job did not finish after client disconnect")
	}
	if err := job.Err(); err != nil {
		t.Fatalf("job failed after disconnect: %v", err)
	}

	// The scheduler slot is free: a fresh job completes promptly.
	quick := gridSpec()
	quick.Seed = 42
	quickSt := submitJob(t, srv.URL, quick)
	if rows := streamResults(t, srv.URL, quickSt.ID); len(rows) != 8 {
		t.Fatalf("post-disconnect job streamed %d rows", len(rows))
	}

	// And the abandoned job's stream replays in full, byte-stable.
	full := streamResults(t, srv.URL, st.ID)
	if len(full) != 8 {
		t.Fatalf("replayed stream has %d rows, want 8", len(full))
	}
	if full[0] != firstRow {
		t.Error("replayed first row differs from the partially consumed stream")
	}
}
