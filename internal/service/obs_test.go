package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rumor/internal/api"
	"rumor/internal/cachestore"
	"rumor/internal/graph"
	"rumor/internal/obs"
)

// newObsServer builds the full instrumented spine: one registry shared
// by the scheduler's Observability and a cachestore-backed result tier,
// fronted by an HTTP server with the metrics middleware — the same
// wiring cmd/rumord does.
func newObsServer(t *testing.T, workers int) (*httptest.Server, *Scheduler, *Observability, *TieredResultCache) {
	t.Helper()
	reg := obs.NewRegistry()
	observ := NewObservability(reg, nil)
	store, err := cachestore.Open(cachestore.Options{
		Dir:        t.TempDir(),
		KeyVersion: CellKeyVersion,
		Metrics:    cachestore.NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTieredResultCache(NewResultCache(128), store)
	sched := NewScheduler(SchedulerConfig{
		Workers: workers, Results: tiered, Graphs: NewGraphCache(16), Obs: observ,
	})
	srv := httptest.NewServer(NewServer(sched, WithObservability(observ)))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
		_ = tiered.Close()
	})
	return srv, sched, observ, tiered
}

// scrapeMetrics fetches GET /metrics and parses the exposition — so
// every scrape in these tests also revalidates the format.
func scrapeMetrics(t *testing.T, url string) obs.Scrape {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Errorf("/metrics content type = %q, want %q", ct, obs.TextContentType)
	}
	scrape, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text exposition: %v", err)
	}
	return scrape
}

// sumWhere adds samples of one name whose labels contain every pair in
// match (a subset match, unlike Scrape.Value's exact match).
func sumWhere(sc obs.Scrape, sample string, match map[string]string) float64 {
	var total float64
	for _, fam := range sc {
		for _, s := range fam.Samples {
			if s.Name != sample {
				continue
			}
			ok := true
			for k, v := range match {
				if s.Labels[k] != v {
					ok = false
					break
				}
			}
			if ok {
				total += s.Value
			}
		}
	}
	return total
}

// TestMetricsExpositionLifecycle is the acceptance test of the metrics
// spine: GET /metrics parses as Prometheus text exposition whose
// metadata matches the registry, and the scheduler, cache, cachestore,
// and HTTP families all demonstrably move across a full job lifecycle
// — submit, stream, and a cache-served resubmit — while staying
// monotone where the type demands it.
func TestMetricsExpositionLifecycle(t *testing.T) {
	srv, _, observ, tiered := newObsServer(t, 2)

	before := scrapeMetrics(t, srv.URL)
	for name, fam := range before {
		if fam.Help == "" {
			t.Errorf("family %s has no # HELP", name)
		}
		if fam.Type == "" {
			t.Errorf("family %s has no # TYPE", name)
		}
		if help, ok := observ.Reg.Help(name); !ok || help != fam.Help {
			t.Errorf("family %s help mismatch: scraped %q, registered %q", name, fam.Help, help)
		}
		if typ, ok := observ.Reg.Type(name); !ok || typ != fam.Type {
			t.Errorf("family %s type mismatch: scraped %q, registered %q", name, fam.Type, typ)
		}
	}

	// Lifecycle: one computed job, one byte-identical cache-served
	// resubmit of the same spec, both streamed to EOF.
	spec := gridSpec()
	st := submitJob(t, srv.URL, spec)
	if rows := streamResults(t, srv.URL, st.ID); len(rows) != 8 {
		t.Fatalf("first job streamed %d rows", len(rows))
	}
	st2 := submitJob(t, srv.URL, spec)
	if rows := streamResults(t, srv.URL, st2.ID); len(rows) != 8 {
		t.Fatalf("resubmit streamed %d rows", len(rows))
	}
	// Flush the write-behind queue so the disk tier's append counters
	// are visible in the scrape.
	if err := tiered.Flush(); err != nil {
		t.Fatal(err)
	}

	after := scrapeMetrics(t, srv.URL)

	// Counters and histogram series never go backwards.
	for name, fam := range before {
		if fam.Type != obs.TypeCounter && fam.Type != obs.TypeHistogram {
			continue
		}
		for _, s := range fam.Samples {
			if fam.Type == obs.TypeHistogram && !strings.HasSuffix(s.Name, "_count") &&
				!strings.HasSuffix(s.Name, "_sum") && !strings.HasSuffix(s.Name, "_bucket") {
				continue
			}
			now, ok := after.Value(s.Name, s.Labels)
			if !ok {
				t.Errorf("%s series %s%v disappeared across the lifecycle", name, s.Name, s.Labels)
				continue
			}
			if now < s.Value {
				t.Errorf("%s series %s%v went backwards: %v -> %v", name, s.Name, s.Labels, s.Value, now)
			}
		}
	}

	// HTTP: the submits and streams all land in the request counter and
	// latency histogram, under real route patterns.
	if n := sumWhere(after, "rumor_http_requests_total", map[string]string{"route": "POST /v1/jobs", "code": "202"}); n < 2 {
		t.Errorf("rumor_http_requests_total{route=POST /v1/jobs} = %v, want >= 2", n)
	}
	if n := sumWhere(after, "rumor_http_requests_total", map[string]string{"route": "GET /v1/jobs/{id}/results"}); n < 2 {
		t.Errorf("rumor_http_requests_total{route=.../results} = %v, want >= 2", n)
	}
	if n := sumWhere(after, "rumor_http_request_duration_seconds_count", nil); n < 4 {
		t.Errorf("http duration histogram count = %v, want >= 4", n)
	}

	// Scheduler: 8 computed cells, then 8 cache-served ones; every cell
	// waited on the queue; the two done jobs show in the state gauge.
	if n := sumWhere(after, "rumor_scheduler_cells_total", map[string]string{"outcome": "computed"}); n != 8 {
		t.Errorf("computed cells = %v, want 8", n)
	}
	if n := sumWhere(after, "rumor_scheduler_cells_total", map[string]string{"outcome": "cached"}); n != 8 {
		t.Errorf("cached cells = %v, want 8", n)
	}
	if n := sumWhere(after, "rumor_scheduler_queue_wait_seconds_count", nil); n != 16 {
		t.Errorf("queue wait observations = %v, want 16", n)
	}
	if n, ok := after.Value("rumor_scheduler_jobs", map[string]string{"state": "done"}); !ok || n != 2 {
		t.Errorf("jobs{state=done} = %v, %v, want 2", n, ok)
	}
	if n := sumWhere(after, "rumor_scheduler_cell_duration_seconds_count", nil); n != 8 {
		t.Errorf("cell duration observations = %v, want 8 (computed cells only)", n)
	}

	// Engine throughput: the 8 computed cells simulated node updates
	// and the counter moved by exactly the executor's accumulated
	// total; the cache-served resubmit added nothing.
	if n, ok := after.Value("rumor_engine_node_updates_total", nil); !ok || n <= 0 {
		t.Errorf("rumor_engine_node_updates_total = %v, %v, want > 0", n, ok)
	} else if b, _ := before.Value("rumor_engine_node_updates_total", nil); n <= b {
		t.Errorf("rumor_engine_node_updates_total did not move: %v -> %v", b, n)
	}

	// Caches: the resubmit hit the result tier; the sync/async timing
	// pairs share built graphs.
	if n, ok := after.Value("rumor_cache_hits_total", map[string]string{"cache": "result", "tier": "mem"}); !ok || n != 8 {
		t.Errorf("result cache mem hits = %v, %v, want 8", n, ok)
	}
	if n := sumWhere(after, "rumor_cache_hits_total", map[string]string{"cache": "graph"}); n == 0 {
		t.Error("graph cache saw no hits across timing pairs")
	}
	if n := sumWhere(after, "rumor_cache_misses_total", map[string]string{"cache": "result"}); n != 8 {
		t.Errorf("result cache misses = %v, want 8", n)
	}

	// Cachestore: the computed results were appended to the disk tier
	// and flushed into segments.
	if n, ok := after.Value("rumor_cachestore_appends_total", nil); !ok || n != 8 {
		t.Errorf("cachestore appends = %v, %v, want 8", n, ok)
	}
	if n, ok := after.Value("rumor_cachestore_records", nil); !ok || n != 8 {
		t.Errorf("cachestore records = %v, %v, want 8", n, ok)
	}
	if n := sumWhere(after, "rumor_cachestore_flush_seconds_count", nil); n == 0 {
		t.Error("cachestore flush histogram never observed a flush")
	}
}

// TestMetricsNamingLint audits every family the full spine registers —
// service spine plus cachestore — against the naming conventions:
// rumor_ prefix, legal Prometheus names, counters end in _total,
// histograms are in base seconds, and every family carries help text.
// It iterates the registry, not a scrape, so label-vecs with no
// children yet are audited too.
func TestMetricsNamingLint(t *testing.T) {
	reg := obs.NewRegistry()
	NewObservability(reg, nil)
	cachestore.NewMetrics(reg)

	names := reg.Families()
	if len(names) < 20 {
		t.Fatalf("only %d families registered — spine wiring incomplete", len(names))
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "rumor_") {
			t.Errorf("family %s lacks the rumor_ namespace prefix", name)
		}
		if !obs.NameRE.MatchString(name) {
			t.Errorf("family %s is not a legal Prometheus metric name", name)
		}
		help, ok := reg.Help(name)
		if !ok || strings.TrimSpace(help) == "" {
			t.Errorf("family %s has no help text", name)
		}
		typ, ok := reg.Type(name)
		if !ok {
			t.Errorf("family %s has no type", name)
			continue
		}
		switch typ {
		case obs.TypeCounter:
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("counter %s must end in _total", name)
			}
		case obs.TypeGauge:
			if strings.HasSuffix(name, "_total") {
				t.Errorf("gauge %s must not end in _total", name)
			}
		case obs.TypeHistogram:
			if !strings.HasSuffix(name, "_seconds") {
				t.Errorf("histogram %s must be in base seconds (suffix _seconds)", name)
			}
		default:
			t.Errorf("family %s has unknown type %q", name, typ)
		}
	}
}

// The blocking test kind parks a cell until the test releases it —
// the only way to hold a job mid-flight deterministically, since real
// cells finish in milliseconds. Registered once (the kind table is
// process-global); each test swaps in a fresh release channel.
var (
	blockMu       sync.Mutex
	blockRelease  chan struct{}
	blockKindOnce sync.Once
)

func armBlockKind() chan struct{} {
	blockKindOnce.Do(func() {
		MustRegisterKind(CellKind{
			Name: "obs-test-block",
			Run: func(ctx context.Context, _ CellSpec, _ *graph.Graph, _ int) (*KindResult, error) {
				blockMu.Lock()
				ch := blockRelease
				blockMu.Unlock()
				select {
				case <-ch:
					return &KindResult{Times: []float64{1}}, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			},
		})
	})
	ch := make(chan struct{})
	blockMu.Lock()
	blockRelease = ch
	blockMu.Unlock()
	return ch
}

// TestActiveStreamGaugeOnDisconnect is the regression test for stream
// accounting: a client that force-closes its NDJSON or SSE connection
// mid-stream must decrement the active-stream gauge, and the job (and
// its scheduler slot) must be unaffected by the vanished observer.
func TestActiveStreamGaugeOnDisconnect(t *testing.T) {
	srv, _, observ, _ := newObsServer(t, 1)
	release := armBlockKind()

	// One blocked cell keeps the job running for as long as the test
	// needs both streams open.
	st := submitJob(t, srv.URL, JobSpec{
		CellList: []CellSpec{{Kind: "obs-test-block", Trials: 1, TrialSeed: 1}},
	})

	waitGauge := func(kind string, want float64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if got := observ.activeStreams.With(kind).Value(); got == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("active_streams{kind=%s} = %v, want %v",
					kind, observ.activeStreams.With(kind).Value(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// openStream starts a stream request in the background and returns
	// the force-close. The body is deliberately never read: the NDJSON
	// handler holds its headers until the first row (Do blocks until the
	// force-close), while the SSE handler responds immediately — its
	// body must be held open, unread, until the force-close kills the
	// connection mid-stream.
	openStream := func(path string) (cancel func()) {
		ctx, cancelCtx := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+path, nil)
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			<-ctx.Done()
			resp.Body.Close()
		}()
		return func() {
			cancelCtx()
			<-done
		}
	}

	// NDJSON: open the stream (the handler blocks waiting for cell 0),
	// then vanish without reading a single row.
	cancel := openStream("/v1/jobs/" + st.ID + "/results")
	waitGauge("ndjson", 1)
	cancel()
	waitGauge("ndjson", 0)

	// SSE: same force-close, tracked under its own kind.
	cancel = openStream("/v1/jobs/" + st.ID + "/events")
	waitGauge("sse", 1)
	cancel()
	waitGauge("sse", 0)

	// The vanished observers did not consume the worker: releasing the
	// cell lets the job finish and its stream replay in full.
	close(release)
	if rows := streamResults(t, srv.URL, st.ID); len(rows) != 1 {
		t.Fatalf("released job streamed %d rows, want 1", len(rows))
	}
	quick := gridSpec()
	quick.Seed = 99
	quickSt := submitJob(t, srv.URL, quick)
	if rows := streamResults(t, srv.URL, quickSt.ID); len(rows) != 8 {
		t.Fatalf("post-disconnect job streamed %d rows, want 8", len(rows))
	}
	waitGauge("ndjson", 0)
	waitGauge("sse", 0)
}

// TestHealthzBuildInfo: /healthz reports uptime and toolchain metadata
// alongside the liveness status (the SDK's Health decodes the same
// wire type).
func TestHealthzBuildInfo(t *testing.T) {
	srv, _ := newTestServer(t, SchedulerConfig{Workers: 1})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h api.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.GoVersion == "" || h.UptimeSeconds < 0 {
		t.Errorf("healthz = %+v", h)
	}
}

// TestGraphBuildObserved: rumor_graph_build_seconds counts the builds
// that ran, not the cells — one per graph through a GraphCache however
// many cells share it, one per computed cell without a cache — and the
// debug line of a computed cell says how long its own build took (0 on
// a graph hit). rumor_cell_trials_seconds counts every computed cell,
// and none served from the result cache, with trials_ms on the same
// line. Result bytes carry none of it.
func TestGraphBuildObserved(t *testing.T) {
	var logs strings.Builder
	log, err := obs.NewLogger(&logs, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	observ := NewObservability(obs.NewRegistry(), log)
	cell := CellSpec{Family: "gnp", N: 2000, Protocol: "push-pull", Timing: TimingSync, Trials: 1, GraphSeed: 3, TrialSeed: 1}
	again := cell
	again.TrialSeed = 2

	cached := &Executor{Results: NewResultCache(4), Graphs: NewGraphCache(4), Obs: observ}
	for _, c := range []CellSpec{cell, again, cell} {
		if _, _, err := cached.Run(context.Background(), 0, c); err != nil {
			t.Fatal(err)
		}
	}
	if got := observ.graphBuild.Count(); got != 1 {
		t.Errorf("two cells on one cached graph observed %d builds, want 1", got)
	}
	if got := observ.cellTrials.Count(); got != 2 {
		t.Errorf("two computed cells and a result hit observed %d trial phases, want 2", got)
	}
	bare := &Executor{Obs: observ}
	res, _, err := bare.Run(context.Background(), 0, cell)
	if err != nil {
		t.Fatal(err)
	}
	if got := observ.graphBuild.Count(); got != 2 {
		t.Errorf("a cache-less cell brought the build count to %d, want 2", got)
	}
	if got := observ.cellTrials.Count(); got != 3 {
		t.Errorf("a third computed cell brought the trial-phase count to %d, want 3", got)
	}
	if row, _ := api.Marshal(res); strings.Contains(string(row), "build") || strings.Contains(string(row), "trials_") {
		t.Errorf("result row mentions a phase: %s", row)
	}

	var builds []float64
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec struct {
			Msg          string   `json:"msg"`
			GraphBuildMs *float64 `json:"graph_build_ms"`
			TrialsMs     *float64 `json:"trials_ms"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec.Msg != "cell computed" {
			continue
		}
		if rec.GraphBuildMs == nil {
			t.Fatalf("computed-cell line without graph_build_ms: %s", line)
		}
		if rec.TrialsMs == nil || *rec.TrialsMs <= 0 {
			t.Fatalf("computed-cell line without a positive trials_ms: %s", line)
		}
		builds = append(builds, *rec.GraphBuildMs)
	}
	if len(builds) != 3 || builds[0] <= 0 || builds[1] != 0 || builds[2] <= 0 {
		t.Errorf("graph_build_ms per computed cell = %v, want [>0, 0, >0]", builds)
	}
}

// TestSchedulerRunCellsKeepsRequestID: Scheduler.RunCells submits its
// job on behalf of ctx, so the job's cells log under ctx's request ID.
func TestSchedulerRunCellsKeepsRequestID(t *testing.T) {
	var logs strings.Builder
	log, err := obs.NewLogger(&logs, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestScheduler(t, SchedulerConfig{Workers: 2, Obs: NewObservability(obs.NewRegistry(), log)})
	cells := []CellSpec{
		{Family: "complete", N: 16, Protocol: "push", Timing: TimingSync, Trials: 2, GraphSeed: 1, TrialSeed: 1},
		{Family: "complete", N: 16, Protocol: "push", Timing: TimingAsync, Trials: 2, GraphSeed: 1, TrialSeed: 2},
	}
	if _, err := s.RunCells(obs.WithRequestID(context.Background(), "rc-7"), cells); err != nil {
		t.Fatal(err)
	}
	// A worker logs the job's finish after RunCells has its results.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec struct {
			Msg       string `json:"msg"`
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec.Msg == "cell computed" {
			ids = append(ids, rec.RequestID)
		}
	}
	if len(ids) != len(cells) || ids[0] != "rc-7" || ids[1] != "rc-7" {
		t.Errorf("cell computed lines carry request IDs %q, want rc-7 on each of %d", ids, len(cells))
	}
}
