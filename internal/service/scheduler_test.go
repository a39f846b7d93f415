package service

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func newTestScheduler(t *testing.T, cfg SchedulerConfig) *Scheduler {
	t.Helper()
	s := NewScheduler(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func collectResults(t *testing.T, job *Job) []*CellResult {
	t.Helper()
	out := make([]*CellResult, 0, job.NumCells())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < job.NumCells(); i++ {
		res, err := job.WaitCell(ctx, i)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		out = append(out, res)
	}
	return out
}

// sameResults compares everything that should be a pure function of the
// spec (i.e. the full wire payload).
func sameResults(a, b []*CellResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Identical job spec => identical results regardless of worker count or
// cache state: the acceptance bar for determinism.
func TestSchedulerDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := gridSpec()
	var baseline []*CellResult
	for _, workers := range []int{1, 8} {
		s := newTestScheduler(t, SchedulerConfig{Workers: workers})
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		got := collectResults(t, job)
		if err := job.Wait(); err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = got
			continue
		}
		if !sameResults(baseline, got) {
			t.Fatalf("results differ between worker counts 1 and %d", workers)
		}
	}
	// Sanity: the sample is non-degenerate.
	for _, r := range baseline {
		if r.Summary.N != spec.Trials || r.Summary.Mean <= 0 || math.IsNaN(r.Summary.Mean) {
			t.Fatalf("degenerate result: %+v", r.Summary)
		}
	}
}

// Second submission of the same job is served from the result cache,
// observable through the job's hit counter and the cache stats.
func TestSchedulerSecondSubmissionHitsCache(t *testing.T) {
	results := NewResultCache(128)
	s := newTestScheduler(t, SchedulerConfig{Workers: 4, Results: results, Graphs: NewGraphCache(16)})
	spec := gridSpec()

	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	a := collectResults(t, first)
	if err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	if hits := first.Status().CacheHits; hits != 0 {
		t.Fatalf("cold run reported %d cache hits", hits)
	}

	second, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	b := collectResults(t, second)
	if err := second.Wait(); err != nil {
		t.Fatal(err)
	}
	if hits := second.Status().CacheHits; hits != second.NumCells() {
		t.Errorf("warm run hit cache on %d/%d cells", hits, second.NumCells())
	}
	if st := results.Stats(); st.Hits < uint64(second.NumCells()) {
		t.Errorf("result cache recorded %d hits, want >= %d", st.Hits, second.NumCells())
	}
	if !sameResults(a, b) {
		t.Error("cached results differ from computed results")
	}
}

func TestSchedulerBackpressureRejects(t *testing.T) {
	// A job bigger than the whole queue can never be accepted: that is
	// a permanent ErrJobTooLarge, not transient backpressure.
	s := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueLimit: 3})
	spec := gridSpec() // 8 cells
	if _, err := s.Submit(spec); !errors.Is(err, ErrJobTooLarge) {
		t.Fatalf("err = %v, want ErrJobTooLarge", err)
	}
	// A job that fits is accepted.
	small := spec
	small.Families = []string{"complete"}
	small.Sizes = []int{16}
	small.Timings = []string{TimingSync}
	if _, err := s.Submit(small); err != nil {
		t.Fatalf("small job rejected: %v", err)
	}
}

func TestSchedulerQueueFullIsTransient(t *testing.T) {
	// Occupy the queue with a slow job, then submit one that fits the
	// limit but not the remaining space: transient ErrQueueFull.
	s := newTestScheduler(t, SchedulerConfig{Workers: 1, QueueLimit: 10})
	slow := JobSpec{
		Families:  []string{"cycle"},
		Sizes:     []int{2000, 2500, 3000, 3500},
		Protocols: []string{"push-pull"},
		Timings:   []string{TimingSync, TimingAsync},
		Trials:    200,
		Seed:      1,
	} // 8 cells, each slow enough to keep the queue occupied
	slowJob, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(gridSpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	// Cancelling the occupying job purges its pending cells, freeing
	// the queue for the same submission immediately.
	slowJob.Cancel()
	if _, err := s.Submit(gridSpec()); err != nil {
		t.Fatalf("submit after cancel purge: %v", err)
	}
}

func TestSchedulerPriorityOrdersQueue(t *testing.T) {
	// One worker, normal and high priority jobs: the high-priority job's
	// cells should all complete before the low-priority job finishes
	// queuing through. We verify via completion order of the jobs.
	s := newTestScheduler(t, SchedulerConfig{Workers: 1})
	low := gridSpec()
	low.Trials = 30
	high := gridSpec()
	high.Trials = 31 // distinct cells so the cache cannot interfere
	high.Priority = 10

	lowJob, err := s.Submit(low)
	if err != nil {
		t.Fatal(err)
	}
	highJob, err := s.Submit(high)
	if err != nil {
		t.Fatal(err)
	}
	var finished []string
	for range [2]struct{}{} {
		select {
		case <-lowJob.Terminal():
			if err := lowJob.Err(); err != nil {
				t.Fatal(err)
			}
			finished = append(finished, "low")
			lowJob = &Job{terminal: make(chan struct{})} // won't fire again
		case <-highJob.Terminal():
			if err := highJob.Err(); err != nil {
				t.Fatal(err)
			}
			finished = append(finished, "high")
			highJob = &Job{terminal: make(chan struct{})}
		case <-time.After(60 * time.Second):
			t.Fatal("jobs did not finish")
		}
	}
	// The first low cell may already be running when high is submitted,
	// but all remaining high cells jump the queue, so high finishes
	// first.
	if finished[0] != "high" {
		t.Errorf("completion order %v, want high first", finished)
	}
}

// TestSchedulerCancelStopsJob: cancelling a job while its first cell
// runs ends it cancelled, and every cell, the aborted one included, then
// reports ErrJobNotDone. The pin-order kind parks each cell until the
// test releases it, and it releases none, so no cell can finish before
// Cancel lands.
func TestSchedulerCancelStopsJob(t *testing.T) {
	started, _ := armOrderKind()
	s := newTestScheduler(t, SchedulerConfig{Workers: 1})
	job, err := s.SubmitCells(orderCells(1, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	recv(t, started, "the first cell to start")
	job.Cancel()
	if err := job.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := job.Status(); st.State != JobCancelled || st.CellsDone != 0 {
		t.Errorf("status = %+v, want cancelled with no cells done", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < job.NumCells(); i++ {
		if _, err := job.WaitCell(ctx, i); !errors.Is(err, ErrJobNotDone) {
			t.Fatalf("cell %d: err = %v, want ErrJobNotDone", i, err)
		}
	}
}

func TestSchedulerGracefulDrain(t *testing.T) {
	// Shutdown with a generous deadline lets queued cells finish: the
	// submitted job completes rather than being cancelled.
	s := NewScheduler(SchedulerConfig{Workers: 2})
	job, err := s.Submit(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := job.Status(); st.State != JobDone || st.CellsDone != job.NumCells() {
		t.Errorf("after drain: state %s, %d/%d cells", st.State, st.CellsDone, job.NumCells())
	}
	// New submissions are rejected once shutdown began.
	if _, err := s.Submit(gridSpec()); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("submit after shutdown: err = %v, want ErrShuttingDown", err)
	}
}

func TestSchedulerShutdownDeadlineCancels(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	spec := gridSpec()
	spec.Sizes = []int{256, 512}
	spec.Trials = 200
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err = s.Shutdown(ctx)
	if err == nil {
		// Machine fast enough to drain within a millisecond: fine.
		return
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	<-job.Terminal()
	if st := job.Status(); st.State != JobCancelled && st.State != JobDone {
		t.Errorf("state = %s, want cancelled (or done)", st.State)
	}
}

func TestSchedulerMetrics(t *testing.T) {
	results := NewResultCache(64)
	s := newTestScheduler(t, SchedulerConfig{Workers: 2, Results: results, Graphs: NewGraphCache(8)})
	job, err := s.Submit(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.CellsComputed != int64(job.NumCells()) {
		t.Errorf("cells_computed = %d, want %d", m.CellsComputed, job.NumCells())
	}
	if m.Jobs["done"] != 1 {
		t.Errorf("jobs = %v, want one done", m.Jobs)
	}
	if m.ResultCache == nil || m.GraphCache == nil {
		t.Fatal("cache stats missing from metrics")
	}
	if m.Workers != 2 {
		t.Errorf("workers = %d", m.Workers)
	}
}

// Terminal jobs beyond the retention bound are evicted (oldest first)
// so a long-running daemon does not hold every result forever.
func TestSchedulerJobRetention(t *testing.T) {
	s := newTestScheduler(t, SchedulerConfig{Workers: 2, JobRetention: 2})
	spec := JobSpec{
		Families: []string{"complete"}, Sizes: []int{16},
		Protocols: []string{"push-pull"}, Timings: []string{TimingSync},
		Trials: 2, Seed: 1,
	}
	var ids []string
	for i := 0; i < 4; i++ {
		spec.Seed = uint64(i + 1) // distinct jobs
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID())
	}
	// One more submission triggers pruning of the oldest terminal jobs.
	spec.Seed = 99
	last, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Job(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("oldest job %s survived retention", ids[0])
	}
	if _, err := s.Job(last.ID()); err != nil {
		t.Errorf("latest job evicted: %v", err)
	}
	if n := len(s.JobsFiltered(JobsFilter{})); n > 3 {
		t.Errorf("%d jobs retained, want <= 3", n)
	}

	t.Run("registry", testJobRegistry)
}

// runnerFunc is a CellRunner in one function.
type runnerFunc func(ctx context.Context, cells []CellSpec, fn func(*CellResult) error) ([]*CellResult, error)

func (f runnerFunc) StreamCells(ctx context.Context, cells []CellSpec, fn func(*CellResult) error) ([]*CellResult, error) {
	return f(ctx, cells, fn)
}

// testJobRegistry holds the registry of a scheduler with retention 2 to
// its invariants: it keeps its jobs in submission order; a live job
// older than the terminal ones survives pruning; an evicted job's
// Idempotency-Key is forgotten, unless a retry after a failed attempt
// has rebound it to a newer job; and listing pages as before. Its cells
// run on a stub remote: a cell of trial seed 1 runs until its job is
// cancelled, one of trial seed 2 fails on its first run, and every
// other cell completes at once.
func testJobRegistry(t *testing.T) {
	var failed atomic.Bool
	remote := runnerFunc(func(ctx context.Context, cells []CellSpec, fn func(*CellResult) error) ([]*CellResult, error) {
		for i, c := range cells {
			switch {
			case c.TrialSeed == 1:
				<-ctx.Done()
				return nil, ctx.Err()
			case c.TrialSeed == 2 && !failed.Swap(true):
				return nil, errors.New("stub: first run fails")
			}
			if err := fn(&CellResult{Index: i, Cell: c}); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	s := newTestScheduler(t, SchedulerConfig{Remote: remote, JobRetention: 2})
	checkOrder := func() {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.order) != len(s.jobs) {
			t.Fatalf("%d jobs in order, %d in the map", len(s.order), len(s.jobs))
		}
		for i, j := range s.order {
			if s.jobs[j.id] != j || i > 0 && s.order[i-1].seq >= j.seq {
				t.Fatalf("order[%d] = %s is out of order or not registered", i, j.id)
			}
		}
	}
	submit := func(key string, trialSeed uint64) (*Job, bool) {
		t.Helper()
		spec := JobSpec{CellList: []CellSpec{{Family: "complete", N: 8, Protocol: "push", Timing: TimingSync, Trials: 1, TrialSeed: trialSeed}}}
		job, replayed, err := s.SubmitIdempotent(context.Background(), key, spec)
		if err != nil {
			t.Fatal(err)
		}
		checkOrder()
		if !replayed {
			select {
			case <-job.Terminal():
			case <-time.After(50 * time.Millisecond): // the live job
			}
		}
		return job, replayed
	}
	idemJob := func(key string) string {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.idem[key].jobID
	}

	live, _ := submit("", 1)
	done, _ := submit("k-done", 0)
	first, _ := submit("k-retry", 2) // fails: done is evicted, live stays
	if st := first.Status().State; st != JobFailed {
		t.Fatalf("first attempt is %s, want failed", st)
	}
	if _, err := s.Job(done.ID()); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("terminal job %s survived pruning", done.ID())
	}
	if _, err := s.Job(live.ID()); err != nil {
		t.Errorf("live job %s, older than the terminal ones, was evicted: %v", live.ID(), err)
	}
	if id := idemJob("k-done"); id != "" {
		t.Errorf("evicted job's key still names %s", id)
	}
	retry, _ := submit("k-retry", 2) // binds k-retry to itself; first is evicted
	if _, err := s.Job(first.ID()); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("failed job %s survived pruning", first.ID())
	}
	if id := idemJob("k-retry"); id != retry.ID() {
		t.Errorf("rebound key names %q after its old job's eviction, want %s", id, retry.ID())
	}
	if again, replayed := submit("k-retry", 2); !replayed || again != retry {
		t.Errorf("resubmit under the rebound key: replayed %v, job %s; want a replay of %s", replayed, again.ID(), retry.ID())
	}

	ids := func(sts []JobStatus) (out []string) {
		for _, st := range sts {
			out = append(out, st.ID)
		}
		return out
	}
	for _, tc := range []struct {
		f    JobsFilter
		want []string
	}{
		{JobsFilter{}, []string{live.ID(), retry.ID()}},
		{JobsFilter{AfterSeq: live.seq}, []string{retry.ID()}},
		{JobsFilter{AfterSeq: first.seq}, []string{retry.ID()}}, // an evicted job's cursor
		{JobsFilter{AfterSeq: retry.seq}, nil},
		{JobsFilter{Limit: 1}, []string{live.ID()}},
		{JobsFilter{State: JobDone}, []string{retry.ID()}},
		{JobsFilter{State: JobRunning, Limit: 5}, []string{live.ID()}},
	} {
		if got := ids(s.JobsFiltered(tc.f)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("JobsFiltered(%+v) = %v, want %v", tc.f, got, tc.want)
		}
	}
	live.Cancel()
}

func TestSchedulerUnknownJob(t *testing.T) {
	s := newTestScheduler(t, SchedulerConfig{Workers: 1})
	if _, err := s.Job("job-nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
}

// The executor itself must be deterministic for a fixed cell, with and
// without caches, including the coverage milestones.
func TestExecutorDeterministicAndCoverage(t *testing.T) {
	cell := CellSpec{
		Family: "hypercube", N: 64, Protocol: "push-pull", Timing: TimingAsync,
		Trials: 20, GraphSeed: 3, TrialSeed: 9,
	}
	plain := Executor{}
	cached := Executor{Results: NewResultCache(8), Graphs: NewGraphCache(8), TrialWorkers: 4}
	a, hitA, err := plain.Run(context.Background(), 0, cell)
	if err != nil {
		t.Fatal(err)
	}
	b, hitB, err := cached.Run(context.Background(), 0, cell)
	if err != nil {
		t.Fatal(err)
	}
	c, hitC, err := cached.Run(context.Background(), 5, cell)
	if err != nil {
		t.Fatal(err)
	}
	if hitA || hitB || !hitC {
		t.Errorf("cache hits = %v/%v/%v, want false/false/true", hitA, hitB, hitC)
	}
	if c.Index != 5 {
		t.Errorf("cached result index = %d, want re-indexed 5", c.Index)
	}
	c.Index = 0
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
		t.Error("executor results differ across cache configurations")
	}
	q50, q90, q100 := a.Coverage["q50"], a.Coverage["q90"], a.Coverage["q100"]
	if !(0 < q50 && q50 <= q90 && q90 <= q100) {
		t.Errorf("coverage milestones not monotone: %v", a.Coverage)
	}
	if q100 != a.Summary.Mean {
		t.Errorf("mean full-coverage time %v != mean spreading time %v", q100, a.Summary.Mean)
	}
}
