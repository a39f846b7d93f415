package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rumor/client"
	"rumor/client/clienttest"
	"rumor/internal/api"
	"rumor/internal/experiments"
	"rumor/internal/obs"
	"rumor/internal/service"
)

// newService spins up a full rumord HTTP surface (jobs + experiments)
// and an SDK client for it.
func newService(t *testing.T, cfg service.SchedulerConfig, opts ...client.Option) (*client.Client, *service.Scheduler) {
	t.Helper()
	sched := service.NewScheduler(cfg)
	srv := service.NewServer(sched, service.WithObservability(cfg.Obs))
	experiments.Mount(srv, sched)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
	})
	c, err := client.New(ts.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, sched
}

func smallGrid() service.JobSpec {
	return service.JobSpec{
		Families:  []string{"complete", "star"},
		Sizes:     []int{16, 32},
		Protocols: []string{"push-pull"},
		Timings:   []string{service.TimingSync, service.TimingAsync},
		Trials:    5,
		Seed:      7,
	}
}

func TestNewRejectsBadURL(t *testing.T) {
	for _, raw := range []string{"", "not a url\x7f", "localhost:8080"} {
		if _, err := client.New(raw); err == nil {
			t.Errorf("New(%q) accepted", raw)
		}
	}
}

// TestSubmitRetriesBackpressure: 429 + Retry-After is retried with
// backoff until the queue accepts, invisible to the caller.
func TestSubmitRetriesBackpressure(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			api.WriteError(w, http.StatusTooManyRequests, api.CodeQueueFull, "service: queue full")
			return
		}
		api.WriteJSON(w, http.StatusAccepted, service.JobStatus{ID: "job-00000001", State: service.JobQueued})
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithBackoff(time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.SubmitJob(context.Background(), smallGrid())
	if err != nil {
		t.Fatalf("submit after backpressure: %v", err)
	}
	if st.ID != "job-00000001" || calls.Load() != 3 {
		t.Errorf("status %+v after %d calls", st, calls.Load())
	}
}

// TestSubmitRetryBudgetExhausted: permanent backpressure surfaces as
// the typed queue_full error once the retry budget is spent.
func TestSubmitRetryBudgetExhausted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, http.StatusTooManyRequests, api.CodeQueueFull, "service: queue full")
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithRetries(2), client.WithBackoff(time.Millisecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.SubmitJob(context.Background(), smallGrid())
	if !api.IsCode(err, api.CodeQueueFull) {
		t.Fatalf("err = %v, want queue_full", err)
	}
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.HTTPStatus != http.StatusTooManyRequests {
		t.Errorf("err %v did not preserve the HTTP status", err)
	}
}

// TestTypedErrors: non-2xx envelopes decode into *api.Error with the
// stable code.
func TestTypedErrors(t *testing.T) {
	c, _ := newService(t, service.SchedulerConfig{Workers: 1})
	ctx := context.Background()
	if _, err := c.Job(ctx, "job-999"); !api.IsCode(err, api.CodeJobNotFound) {
		t.Errorf("unknown job: %v", err)
	}
	if _, err := c.SubmitJob(ctx, service.JobSpec{Families: []string{"nope"}, Sizes: []int{8},
		Protocols: []string{"push"}, Timings: []string{"sync"}, Trials: 1}); !api.IsCode(err, api.CodeInvalidSpec) {
		t.Errorf("invalid spec: %v", err)
	}
	if _, err := c.RunExperiment(ctx, "e99", client.RunExperimentRequest{}, nil); !api.IsCode(err, api.CodeExperimentNotFound) {
		t.Errorf("unknown experiment: %v", err)
	}
}

// TestStreamResultsResumesAfterCut: a mid-row transport cut is healed
// by cursor resume — every row delivered exactly once, in order.
func TestStreamResultsResumesAfterCut(t *testing.T) {
	cut := &clienttest.CutOnceTransport{Match: "/results", After: 700}
	c, _ := newService(t, service.SchedulerConfig{Workers: 2},
		client.WithHTTPClient(&http.Client{Transport: cut}),
		client.WithBackoff(time.Millisecond, 10*time.Millisecond))
	ctx := context.Background()
	st, err := c.SubmitJob(ctx, smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	var indexes []int
	if err := c.StreamResults(ctx, st.ID, -1, func(res *service.CellResult) error {
		indexes = append(indexes, res.Index)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if cut.Cuts() != 1 {
		t.Fatalf("transport cut %d streams, want 1", cut.Cuts())
	}
	if len(indexes) != 8 {
		t.Fatalf("delivered %d rows, want 8", len(indexes))
	}
	for i, idx := range indexes {
		if idx != i {
			t.Fatalf("row %d has index %d: duplicate or dropped delivery across the cut", i, idx)
		}
	}
}

// TestRunCellsIdempotentReplay: RunCells keys its submit by the spec
// hash, so running the same cells twice binds to one server-side job
// and returns identical results.
func TestRunCellsIdempotentReplay(t *testing.T) {
	c, _ := newService(t, service.SchedulerConfig{Workers: 2})
	ctx := context.Background()
	cells := smallGrid().Cells()
	first, err := c.RunCells(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.RunCells(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := c.Jobs(ctx, client.JobsQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Errorf("idempotent reruns created %d jobs, want 1", len(jobs))
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Error("replayed RunCells returned different results")
	}
}

// TestJobsQuery: state filter and pagination through the SDK.
func TestJobsQuery(t *testing.T) {
	c, _ := newService(t, service.SchedulerConfig{Workers: 2})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 3; i++ {
		spec := smallGrid()
		spec.Seed = uint64(50 + i)
		st, err := c.SubmitJob(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		if err := c.StreamResults(ctx, st.ID, -1, func(*service.CellResult) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	done, err := c.Jobs(ctx, client.JobsQuery{State: service.JobDone})
	if err != nil || len(done) != 3 {
		t.Fatalf("done jobs = %d (%v), want 3", len(done), err)
	}
	page, err := c.Jobs(ctx, client.JobsQuery{Limit: 2})
	if err != nil || len(page) != 2 {
		t.Fatalf("page 1 = %d (%v), want 2", len(page), err)
	}
	rest, err := c.Jobs(ctx, client.JobsQuery{After: page[1].ID})
	if err != nil || len(rest) != 1 || rest[0].ID != ids[2] {
		t.Fatalf("page 2 = %+v (%v)", rest, err)
	}
	none, err := c.Jobs(ctx, client.JobsQuery{State: service.JobRunning})
	if err != nil || len(none) != 0 {
		t.Fatalf("running jobs = %d (%v), want 0", len(none), err)
	}
}

// TestWatchLive: subscribing before the job finishes delivers every
// cell event in canonical order, interleaved with state transitions,
// and the stream closes after the terminal state.
func TestWatchLive(t *testing.T) {
	c, _ := newService(t, service.SchedulerConfig{Workers: 1})
	ctx := context.Background()
	// Cycle spreading is Θ(n) rounds: slow enough that the watch
	// reliably attaches while the job is still running.
	spec := service.JobSpec{
		Families:  []string{"cycle"},
		Sizes:     []int{400, 600},
		Protocols: []string{"push-pull"},
		Timings:   []string{service.TimingSync, service.TimingAsync},
		Trials:    60,
		Seed:      7,
	}
	st, err := c.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	watch, err := c.Watch(ctx, st.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Close()
	cells := 0
	sawRunning := false
	var last *client.Event
	for {
		ev, err := watch.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case api.EventCell:
			if ev.ID != cells || ev.Result == nil || ev.Result.Index != cells {
				t.Fatalf("cell event out of order: want %d, got id %d (%+v)", cells, ev.ID, ev.Result)
			}
			cells++
		case api.EventState:
			if ev.Status.State == service.JobRunning {
				sawRunning = true
			}
		}
		last = ev
	}
	if cells != 4 {
		t.Errorf("watch delivered %d cell events, want 4", cells)
	}
	if !sawRunning {
		t.Error("watch never saw the running state")
	}
	if last == nil || last.Type != api.EventState || last.Status.State != service.JobDone {
		t.Errorf("last event = %+v, want terminal done state", last)
	}

	// Resuming the watch after the last cell replays only the terminal
	// state.
	resumed, err := c.Watch(ctx, st.ID, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	for {
		ev, err := resumed.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Type == api.EventCell {
			t.Fatalf("resumed watch replayed cell %d", ev.ID)
		}
	}
}

// TestWatchCancelledJob: the event stream of a cancelled job ends with
// a typed error event.
func TestWatchCancelledJob(t *testing.T) {
	c, _ := newService(t, service.SchedulerConfig{Workers: 1})
	ctx := context.Background()
	slow := service.JobSpec{
		Families:  []string{"cycle"},
		Sizes:     []int{2000, 3000},
		Protocols: []string{"push-pull"},
		Timings:   []string{service.TimingSync, service.TimingAsync},
		Trials:    300,
		Seed:      1,
	}
	st, err := c.SubmitJob(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelJob(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	watch, err := c.Watch(ctx, st.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Close()
	var sawError bool
	for {
		ev, err := watch.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Type == api.EventError {
			sawError = true
			if ev.Err == nil || ev.Err.Code != api.CodeJobCancelled {
				t.Errorf("error event = %+v, want job_cancelled", ev.Err)
			}
		}
	}
	if !sawError {
		t.Error("cancelled job's watch ended without an error event")
	}
}

// TestCacheStatsAndMetrics: the read-only snapshots decode through the
// SDK.
func TestCacheStatsAndMetrics(t *testing.T) {
	c, _ := newService(t, service.SchedulerConfig{
		Workers: 2, Results: service.NewResultCache(64), Graphs: service.NewGraphCache(8),
		Obs: service.NewObservability(obs.NewRegistry(), nil),
	})
	ctx := context.Background()
	if h, err := c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, %v", h, err)
	}
	if _, err := c.RunCells(ctx, smallGrid().Cells()); err != nil {
		t.Fatal(err)
	}
	snap, err := c.CacheStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ResultCache == nil || snap.ResultCache.Size == 0 {
		t.Errorf("cache snapshot = %+v", snap.ResultCache)
	}
	scrape, err := c.PromMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	computed, _ := scrape.Value("rumor_scheduler_cells_total",
		map[string]string{"kind": service.KindTime, "outcome": "computed"})
	workers, _ := scrape.Value("rumor_scheduler_workers", nil)
	if computed != 8 || workers != 2 {
		t.Errorf("scraped computed cells = %v, workers = %v, want 8 and 2", computed, workers)
	}
	infos, err := c.Experiments(ctx)
	if err != nil || len(infos) != 15 {
		t.Fatalf("experiments listing: %d entries (%v)", len(infos), err)
	}
}

// TestStreamResultsFailedJob: a job that fails mid-stream surfaces the
// typed job_failed error, not a transport error (so the SDK does not
// try to resume it).
func TestStreamResultsFailedJob(t *testing.T) {
	c, _ := newService(t, service.SchedulerConfig{Workers: 1})
	ctx := context.Background()
	// A multi-source cell with an out-of-range extra source fails its
	// cell deterministically.
	cells := []service.CellSpec{
		{Family: "complete", N: 16, Protocol: "push", Timing: "sync", Trials: 2,
			GraphSeed: 1, TrialSeed: 1},
		{Family: "complete", N: 16, Protocol: "push", Timing: "sync", Trials: 2,
			GraphSeed: 1, TrialSeed: 2, ExtraSources: []int{9999}},
	}
	st, err := c.SubmitJob(ctx, service.JobSpec{CellList: cells})
	if err != nil {
		t.Fatal(err)
	}
	err = c.StreamResults(ctx, st.ID, -1, func(*service.CellResult) error { return nil })
	if !api.IsCode(err, api.CodeJobFailed) {
		t.Fatalf("failed job streamed err = %v, want job_failed", err)
	}
}

// TestRunExperimentOutcome: the typed experiment run returns the same
// outcome the in-process reducer computes.
func TestRunExperimentOutcome(t *testing.T) {
	c, _ := newService(t, service.SchedulerConfig{Workers: 2})
	ctx := context.Background()
	got, err := c.RunExperiment(ctx, "e12", client.RunExperimentRequest{Quick: true, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := experiments.ByID("e12")
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Run(experiments.Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.Verdict != want.Verdict.String() || got.Summary != want.Summary {
		t.Errorf("SDK outcome %+v differs from local %+v", got, want)
	}
}
