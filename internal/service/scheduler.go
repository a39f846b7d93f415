package service

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rumor/internal/obs"
)

// Scheduler errors.
var (
	// ErrQueueFull reports backpressure: the pending-cell queue cannot
	// accept the job right now. Callers should retry later (HTTP maps
	// this to 429).
	ErrQueueFull = errors.New("service: queue full")
	// ErrJobTooLarge reports a job whose cell count exceeds the queue
	// capacity outright: it can never be accepted, at any load (HTTP
	// maps this to 400, not 429, so clients do not retry forever).
	ErrJobTooLarge = errors.New("service: job exceeds queue capacity")
	// ErrShuttingDown reports a submit after shutdown began.
	ErrShuttingDown = errors.New("service: scheduler is shutting down")
	// ErrUnknownJob reports a lookup of a job ID that was never submitted.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrJobNotDone reports a cell read from a job that terminated
	// before computing that cell (failed or cancelled).
	ErrJobNotDone = errors.New("service: job terminated before cell completed")
	// ErrIdempotencyMismatch reports an idempotency key reused with a
	// different job spec: honouring the replay would hand the caller a
	// job they did not submit (HTTP maps this to 409).
	ErrIdempotencyMismatch = errors.New("service: idempotency key reused with a different job spec")
)

// SchedulerConfig configures a Scheduler.
type SchedulerConfig struct {
	// Workers is the size of the cell worker pool; 0 means GOMAXPROCS.
	// A scheduler with a Remote starts none.
	Workers int
	// QueueLimit bounds the number of pending (not yet started) cells
	// across all jobs; a submit that would exceed it is rejected with
	// ErrQueueFull. 0 means 4096.
	QueueLimit int
	// TrialWorkers bounds per-cell trial parallelism (see Executor); 0
	// lends idle cores per running cell. rumord -trial-workers stays 1.
	TrialWorkers int
	// JobRetention bounds how many terminal (done/failed/cancelled)
	// jobs are kept for status/result queries; the oldest are evicted
	// when a new submission pushes past the bound. Running and queued
	// jobs are never evicted. 0 means 256.
	JobRetention int
	// Results and Graphs are the shared caches; nil disables each.
	// Results may be a plain LRU or a TieredResultCache with a
	// persistent tier underneath — the scheduler does not care, but it
	// never owns the disk store's lifecycle: whoever opened it flushes
	// and closes it after Shutdown drains.
	Results ResultStore
	Graphs  *GraphCache
	// Obs instruments the scheduler and executor (queue wait, cell
	// latency, rejections, job lifecycle logs); nil disables it.
	Obs *Observability
	// Remote, when non-nil, delegates every job's cells to it instead of
	// the local worker pool — the coordinator mode behind rumord -peers:
	// the daemon keeps its whole HTTP surface (jobs, result streams, SSE
	// watchers, idempotent replay) but the cells run on peer daemons, and
	// no local workers are started. The remote's StreamCells delivers
	// results as they land, so cursor streams and watchers observe
	// per-cell progress exactly as they do against the local pool.
	Remote CellRunner
}

// Scheduler runs jobs on a bounded worker pool with priorities,
// per-job cancellation, explicit backpressure, and graceful drain.
//
// A job is a cursor over its cells: the queue holds one entry per job
// with unstarted cells, ordered by (priority desc, submission seq asc),
// and workers take the head job's next cell index — so cells start by
// (priority, seq, index). That is strictly a scheduling order; results
// never depend on it.
type Scheduler struct {
	exec       Executor
	remote     CellRunner // non-nil delegates jobs to peers (see SchedulerConfig.Remote)
	workers    int        // local worker goroutines; 0 when remote is set
	queueLimit int
	retention  int

	mu      sync.Mutex
	cond    *sync.Cond // signals workers: new job or shutdown
	queue   []*Job     // jobs with unstarted cells, in scheduling order
	pending int        // unstarted cells across queue
	jobs    map[string]*Job
	idem    map[string]idemEntry // Idempotency-Key -> submitted job
	nextSeq int64
	closed  bool
	wg      sync.WaitGroup

	started    time.Time
	cellsRun   int64 // cells computed (cache misses)
	cellsHit   int64 // cells served from the result cache
	cellErrors int64

	obs *Observability // never nil; see Observability.orOff
}

// NewScheduler starts the worker pool and returns the scheduler.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Remote != nil {
		workers = 0 // a coordinator computes nothing: its jobs never enter the queue
	}
	queueLimit := cfg.QueueLimit
	if queueLimit <= 0 {
		queueLimit = 4096
	}
	retention := cfg.JobRetention
	if retention <= 0 {
		retention = 256
	}
	observ := cfg.Obs.orOff()
	s := &Scheduler{
		exec: Executor{
			Results:      cfg.Results,
			Graphs:       cfg.Graphs,
			TrialWorkers: cfg.TrialWorkers,
			Obs:          observ,
		},
		remote:     cfg.Remote,
		workers:    workers,
		queueLimit: queueLimit,
		retention:  retention,
		jobs:       make(map[string]*Job),
		idem:       make(map[string]idemEntry),
		started:    time.Now(),
		obs:        observ,
	}
	observ.observeScheduler(s)
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates and enqueues a job, returning it immediately. The
// job's cells run as workers free up; results stream via Job.Results.
// Submit rejects with ErrQueueFull when the pending queue cannot hold
// the job's cells and with ErrShuttingDown after Shutdown began.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	job, _, err := s.SubmitIdempotent(context.Background(), "", spec)
	return job, err
}

// SubmitIdempotent is Submit with an idempotency key, on behalf of the
// request ctx belongs to. A resubmit with the same non-empty key and an
// equivalent spec (same canonical cell hashes, same priority) returns
// the original job with replayed = true instead of enqueueing a
// duplicate — a client that lost the response to its first submit
// retries safely. A reused key with a different spec is rejected with
// ErrIdempotencyMismatch. Keys whose job failed, was cancelled, or was
// evicted by retention are forgotten, so a retry after a terminal
// failure runs fresh. An empty key degrades to plain Submit. The job's
// own context — what its cells run and log under, and what a Remote's
// calls to its peers carry — keeps ctx's request ID, and nothing else
// of ctx (the job outlives the request).
func (s *Scheduler) SubmitIdempotent(ctx context.Context, key string, spec JobSpec) (*Job, bool, error) {
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	// Size-check the grid before materializing it, so an oversized
	// request is rejected without allocating its cross product.
	count, ok := spec.CellCount()
	if !ok {
		return nil, false, fmt.Errorf("%w: cell count overflows; split the job", ErrJobTooLarge)
	}
	if count > s.queueLimit {
		return nil, false, fmt.Errorf("%w: %d cells > limit %d; split the job or raise the queue limit",
			ErrJobTooLarge, count, s.queueLimit)
	}
	return s.enqueue(obs.RequestID(ctx), spec.Priority, spec.Cells(), key)
}

// SubmitCells validates and enqueues an explicit cell sequence (the
// form the experiment suite uses: arbitrary cell lists rather than
// grids). Results stream in the given order via Job.Results. It is
// Submit on an explicit-cell JobSpec; validation and size limits are
// shared.
func (s *Scheduler) SubmitCells(cells []CellSpec, priority int) (*Job, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("%w: no cells", ErrBadSpec)
	}
	return s.Submit(JobSpec{Priority: priority, CellList: cells}) // JobSpec.Cells takes the job's own copy
}

// RunCells is StreamCells with no callback.
func (s *Scheduler) RunCells(ctx context.Context, cells []CellSpec) ([]*CellResult, error) {
	return s.StreamCells(ctx, cells, nil)
}

// StreamCells implements CellRunner on the scheduler: it submits the
// cells as one job (at default priority) and hands fn each result as the
// job's cursor yields it, in canonical order. ctx (and its request ID)
// is the job's; cancelling it, or an fn error, cancels the job.
func (s *Scheduler) StreamCells(ctx context.Context, cells []CellSpec, fn func(*CellResult) error) ([]*CellResult, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("%w: no cells", ErrBadSpec)
	}
	job, _, err := s.SubmitIdempotent(ctx, "", JobSpec{CellList: cells})
	if err != nil {
		return nil, err
	}
	results := make([]*CellResult, 0, len(cells))
	for res, err := range job.Results(ctx, -1) {
		if err == nil && fn != nil {
			err = fn(res)
		}
		if err != nil {
			job.Cancel()
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

// idemEntry maps an idempotency key to the job it created and the
// digest of the spec it was created with, so replays can verify the
// resubmitted spec is the same measurement.
type idemEntry struct {
	jobID    string
	specHash string
}

// enqueue registers the validated, size-checked job. requestID is the
// submitting request's correlation ID ("" outside one); cells is the
// spec's expansion, owned by the job from here on; idemKey, when
// non-empty, registers the job for idempotent replay. The replay lookup
// and the enqueue share one critical section, so two racing submits
// with the same key can never both enqueue.
func (s *Scheduler) enqueue(requestID string, priority int, cells []CellSpec, idemKey string) (*Job, bool, error) {
	var specHash string
	if idemKey != "" {
		specHash = hashCells(priority, cells)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrShuttingDown
	}
	if idemKey != "" {
		if e, ok := s.idem[idemKey]; ok {
			if prior, live := s.jobs[e.jobID]; live {
				if e.specHash != specHash {
					return nil, false, fmt.Errorf("%w: key %q", ErrIdempotencyMismatch, idemKey)
				}
				// Replay unless the prior attempt terminated without
				// results; failed and cancelled jobs retry as new work.
				switch prior.Status().State {
				case JobFailed, JobCancelled:
				default:
					return prior, true, nil
				}
			}
			delete(s.idem, idemKey)
		}
	}
	if s.pending+len(cells) > s.queueLimit {
		s.obs.rejections.Inc()
		s.obs.Log.Warn("job rejected: queue full",
			"pending", s.pending, "cells", len(cells), "limit", s.queueLimit)
		return nil, false, fmt.Errorf("%w: %d pending + %d new > limit %d",
			ErrQueueFull, s.pending, len(cells), s.queueLimit)
	}
	s.nextSeq++
	ctx, cancel := context.WithCancel(obs.WithRequestID(context.Background(), requestID))
	job := &Job{
		sched:    s,
		id:       fmt.Sprintf("job-%08d", s.nextSeq),
		seq:      s.nextSeq,
		priority: priority,
		cells:    cells,
		state:    JobQueued,
		results:  make([]*CellResult, len(cells)),
		terminal: make(chan struct{}),
		changed:  make(chan struct{}),
		ctx:      ctx,
		cancel:   cancel,
	}
	s.jobs[job.id] = job
	if idemKey != "" {
		s.idem[idemKey] = idemEntry{jobID: job.id, specHash: specHash}
	}
	if s.remote != nil {
		// Delegated job: cells never touch the local queue — one goroutine
		// per job drives the remote runner and feeds completions back
		// through the same Job state machine the workers use, so every
		// observer (Results, Watch, the NDJSON stream) is none the wiser.
		s.wg.Add(1)
		go s.runRemote(job)
	} else {
		// The newest job goes behind every queued job of its priority or
		// higher.
		at := sort.Search(len(s.queue), func(k int) bool { return s.queue[k].priority < priority })
		job.enqueuedAt = time.Now()
		s.queue = slices.Insert(s.queue, at, job)
		s.pending += len(cells)
	}
	s.pruneJobsLocked()
	s.cond.Broadcast()
	s.obs.Log.InfoContext(job.ctx, "job submitted",
		"job_id", job.id, "cells", len(cells), "priority", priority,
		"queue_depth", s.pending)
	return job, false, nil
}

// pruneJobsLocked evicts the oldest terminal jobs once the registry
// exceeds the retention bound, so a long-running daemon does not
// accumulate every job's results forever. Live jobs are never evicted.
// Caller holds s.mu.
func (s *Scheduler) pruneJobsLocked() {
	excess := len(s.jobs) - s.retention
	if excess <= 0 {
		return
	}
	terminal := make([]*Job, 0, excess)
	for _, j := range s.jobs {
		select {
		case <-j.terminal:
			terminal = append(terminal, j)
		default:
		}
	}
	sort.Slice(terminal, func(i, k int) bool { return terminal[i].seq < terminal[k].seq })
	evicted := false
	for _, j := range terminal {
		if excess <= 0 {
			break
		}
		delete(s.jobs, j.id)
		evicted = true
		excess--
	}
	if !evicted {
		return
	}
	// Idempotency entries whose job was just evicted are dead: a replay
	// could no longer return the job, so forget the key (the resubmit
	// will enqueue fresh — and, with caching, replay from the cell
	// cache anyway).
	for k, e := range s.idem {
		if _, ok := s.jobs[e.jobID]; !ok {
			delete(s.idem, k)
		}
	}
}

// Job returns a submitted job by ID.
func (s *Scheduler) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j, nil
}

// JobsFilter narrows and pages the jobs listing. The zero value selects
// everything.
type JobsFilter struct {
	// State keeps only jobs currently in this state ("" = all).
	State JobState
	// AfterSeq keeps only jobs submitted after the job with this
	// sequence number (0 = from the beginning). Sequence numbers are
	// encoded in job IDs; ParseJobSeq recovers them, so a listing page
	// resumes from its last row's ID even if that job has since been
	// evicted.
	AfterSeq int64
	// Limit bounds the page size (0 = unbounded).
	Limit int
}

// ParseJobSeq recovers the submission sequence number from a job ID
// (the ?after= pagination cursor).
func ParseJobSeq(id string) (int64, error) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, fmt.Errorf("%w: %q is not a job ID", ErrUnknownJob, id)
	}
	seq, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || seq < 0 {
		return 0, fmt.Errorf("%w: %q is not a job ID", ErrUnknownJob, id)
	}
	return seq, nil
}

// JobsFiltered returns status snapshots of the jobs selected by f, in
// submission order. Filtering by state sees each job's state at
// snapshot time; pagination is by submission sequence, so pages are
// stable under concurrent submits (new jobs only ever land after every
// existing cursor).
func (s *Scheduler) JobsFiltered(f JobsFilter) []JobStatus {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if j.seq > f.AfterSeq {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.Status()
		if f.State != "" && st.State != f.State {
			continue
		}
		out = append(out, st)
		if f.Limit > 0 && len(out) == f.Limit {
			break
		}
	}
	return out
}

// worker advances the head job's cursor, one cell at a time, until
// shutdown drains the queue.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		job := s.queue[0]
		i := job.next
		job.next++
		s.pending--
		if job.next == len(job.cells) {
			s.queue[0] = nil // the array outlives the reslice; let the job go
			s.queue = s.queue[1:]
		}
		s.mu.Unlock()
		s.obs.queueWait.Observe(time.Since(job.enqueuedAt).Seconds())
		s.runCell(job, i)
	}
}

// runCell executes cell i of job and records the outcome on the job.
func (s *Scheduler) runCell(job *Job, i int) {
	if !job.startCell() {
		return // job already terminal (cancelled or failed)
	}
	res, cached, err := s.exec.Run(job.ctx, i, job.cells[i])
	s.mu.Lock()
	switch {
	case errors.Is(err, context.Canceled):
		// A cancelled job's in-flight cells abort through the context;
		// that is not a simulation failure.
	case err != nil:
		s.cellErrors++
	case cached:
		s.cellsHit++
	default:
		s.cellsRun++
	}
	s.mu.Unlock()
	if err != nil {
		// First error wins; a cancelled job's aborted cells land here too
		// and change nothing.
		err = fmt.Errorf("cell %d (%s): %w", i, job.cells[i].Key(), err)
		job.mu.Lock()
		job.finish(JobFailed, err)
		return
	}
	job.completeCell(i, res, cached)
}

// runRemote drives one delegated job against the remote runner,
// completing cells as their results land. Remote results arrive indexed
// by the job's canonical cell order, so they slot straight into the
// Job's result array.
func (s *Scheduler) runRemote(job *Job) {
	defer s.wg.Done()
	if !job.startCell() {
		return // cancelled before the remote run began
	}
	_, err := s.remote.StreamCells(job.ctx, job.cells, func(res *CellResult) error {
		if res.Index < 0 || res.Index >= len(job.cells) {
			return fmt.Errorf("service: remote returned index %d for a %d-cell job", res.Index, len(job.cells))
		}
		s.mu.Lock()
		s.cellsRun++
		s.mu.Unlock()
		// No duration: the cell's latency was observed on the peer that ran it.
		s.obs.cellsTotal.With(job.cells[res.Index].kind(), "computed").Inc()
		job.completeCell(res.Index, res, false)
		return nil
	})
	if err != nil && job.ctx.Err() == nil {
		s.mu.Lock()
		s.cellErrors++
		s.mu.Unlock()
		// A job-level error: a delegation failure has no culprit cell.
		job.mu.Lock()
		job.finish(JobFailed, err)
	}
}

// Metrics is the scheduler's throughput and queue snapshot; the
// scrape-time collect hook mirrors it into the registry.
type Metrics struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Workers       int            `json:"workers"`
	QueueLimit    int            `json:"queue_limit"`
	QueueDepth    int            `json:"queue_depth"`
	Jobs          map[string]int `json:"jobs"`
	CellsComputed int64          `json:"cells_computed"`
	CellsCached   int64          `json:"cells_cached"`
	CellErrors    int64          `json:"cell_errors"`
	CellsPerSec   float64        `json:"cells_per_sec"`
	ResultCache   *CacheStats    `json:"result_cache,omitempty"`
	GraphCache    *CacheStats    `json:"graph_cache,omitempty"`
}

// Metrics returns a point-in-time snapshot of throughput and queue
// state.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	m := Metrics{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Workers:       s.workers,
		QueueLimit:    s.queueLimit,
		QueueDepth:    s.pending,
		Jobs:          make(map[string]int),
		CellsComputed: s.cellsRun,
		CellsCached:   s.cellsHit,
		CellErrors:    s.cellErrors,
	}
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		m.Jobs[string(j.Status().State)]++
	}
	if m.UptimeSeconds > 0 {
		m.CellsPerSec = float64(m.CellsComputed+m.CellsCached) / m.UptimeSeconds
	}
	caches := s.CacheStats()
	m.ResultCache, m.GraphCache = caches.ResultCache, caches.GraphCache
	return m
}

// CacheSnapshot is the GET /v1/cache payload: one consistent snapshot
// per cache (result tiers and graphs), taken at request time.
type CacheSnapshot struct {
	ResultCache *CacheStats `json:"result_cache,omitempty"`
	GraphCache  *CacheStats `json:"graph_cache,omitempty"`
}

// CacheStats snapshots the scheduler's caches. Each cache's counters
// are read in a single critical section (see CacheStats), so hit/miss
// pairs never tear even while workers are hammering the caches.
func (s *Scheduler) CacheStats() CacheSnapshot {
	var snap CacheSnapshot
	if s.exec.Results != nil {
		st := s.exec.Results.Stats()
		snap.ResultCache = &st
	}
	if s.exec.Graphs != nil {
		st := s.exec.Graphs.Stats()
		snap.GraphCache = &st
	}
	return snap
}

// Shutdown stops accepting jobs and drains: queued and running cells
// finish normally. If ctx expires first, all unfinished jobs are
// cancelled and Shutdown returns ctx's error once workers exit.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelAll()
		<-done
		return ctx.Err()
	}
}

// dequeue drops a terminated job's unstarted cells from the queue so
// dead work stops counting against the queue limit.
func (s *Scheduler) dequeue(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if at := slices.Index(s.queue, j); at >= 0 {
		s.pending -= len(j.cells) - j.next
		s.queue = slices.Delete(s.queue, at, at+1)
	}
}

// cancelAll cancels every non-terminal job, which empties the queue.
func (s *Scheduler) cancelAll() {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
}

// Job is a submitted batch with live progress. All methods are safe for
// concurrent use.
type Job struct {
	sched    *Scheduler
	id       string
	seq      int64
	priority int
	cells    []CellSpec
	ctx      context.Context
	cancel   context.CancelFunc

	// The job's place in the queue; guarded by sched.mu.
	next       int       // first cell no worker has taken yet
	enqueuedAt time.Time // when the job joined the queue

	mu        sync.Mutex
	state     JobState
	err       error
	results   []*CellResult // indexed by cell; nil until computed
	done      int
	cacheHits int
	terminal  chan struct{} // closed on done/failed/cancelled
	changed   chan struct{} // closed and replaced on every observable change
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// NumCells returns the number of cells.
func (j *Job) NumCells() int { return len(j.cells) }

// Status returns a point-in-time snapshot.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked builds the snapshot; caller holds j.mu.
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:         j.id,
		State:      j.state,
		Priority:   j.priority,
		CellsTotal: len(j.cells),
		CellsDone:  j.done,
		CacheHits:  j.cacheHits,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// notifyLocked wakes every reader blocked on the job; caller holds j.mu.
func (j *Job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// Watch is one look at the job: the results completed so far from cell
// next on, in canonical order and without gaps (the caller must not
// modify the slice), a status snapshot, and a channel that is closed at
// the next observable change (state transition or cell completion).
// Every reader of a running job is a loop over Watch — take what is
// ready, emit it, block on the channel — and one that loops until the
// snapshot is terminal observes every cell and every transition.
func (j *Job) Watch(next int) ([]*CellResult, JobStatus, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	end := next
	for end < len(j.results) && j.results[end] != nil {
		end++
	}
	return j.results[next:end], j.statusLocked(), j.changed
}

// Results is the job's ordered cursor: it yields the cells after index
// after, in canonical order, as they complete — the basis of
// deterministic result streaming; a reader resuming at after sees
// exactly the suffix a reader from -1 would. The sequence ends after the
// last cell; if ctx is cancelled first, or the job terminates without
// computing the next cell, it ends with one (nil, error) pair carrying
// ctx's error or the ErrJobNotDone-wrapped terminal error.
func (j *Job) Results(ctx context.Context, after int) iter.Seq2[*CellResult, error] {
	return func(yield func(*CellResult, error) bool) {
		for ready, err := range j.batches(ctx, after) {
			if err != nil {
				yield(nil, err)
				return
			}
			for _, res := range ready {
				if !yield(res, nil) {
					return
				}
			}
		}
	}
}

// batches is the cursor behind Results, one step coarser: it yields
// each non-empty run of cells that is ready when it looks (the caller
// must not modify the slice), so a reader can finish its work on a run
// — a writer can flush — before the cursor blocks for the next cell.
// Its end is Results': after the last cell, or one (nil, error) pair.
func (j *Job) batches(ctx context.Context, after int) iter.Seq2[[]*CellResult, error] {
	return func(yield func([]*CellResult, error) bool) {
		for next := after + 1; next < len(j.cells); {
			ready, st, changed := j.Watch(next)
			if len(ready) > 0 && !yield(ready, nil) {
				return
			}
			next += len(ready)
			switch {
			case next == len(j.cells):
				return
			case st.State.terminal():
				// The snapshot was terminal, so ready held every cell
				// from next on that will ever complete.
				yield(nil, fmt.Errorf("%w: %s", ErrJobNotDone, st.Error))
				return
			}
			select {
			case <-changed:
			case <-ctx.Done():
				yield(nil, ctx.Err())
				return
			}
		}
	}
}

// WaitCell blocks until cell i's result is available and returns it: the
// one-cell case of Results. It fails if the job terminates without
// computing the cell or ctx is cancelled first.
func (j *Job) WaitCell(ctx context.Context, i int) (*CellResult, error) {
	if i < 0 || i >= len(j.cells) {
		return nil, fmt.Errorf("service: cell index %d out of range [0, %d)", i, len(j.cells))
	}
	for res, err := range j.Results(ctx, i-1) {
		return res, err
	}
	panic("unreachable: Results yields at least once for an in-range cell")
}

// Cancel moves the job to the cancelled state (if not already terminal)
// and stops its remaining cells; running trials notice via context.
func (j *Job) Cancel() {
	j.mu.Lock()
	j.finish(JobCancelled, context.Canceled)
}

// Err returns the job's terminal error (nil while running or if done).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Terminal returns a channel closed when the job reaches a terminal
// state (done, failed, or cancelled).
func (j *Job) Terminal() <-chan struct{} { return j.terminal }

// Wait blocks until the job is terminal and returns its error.
func (j *Job) Wait() error {
	<-j.terminal
	return j.Err()
}

// startCell transitions queued→running and reports whether the cell
// should run (false once the job is terminal).
func (j *Job) startCell() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case JobQueued:
		j.state = JobRunning
		j.notifyLocked()
		return true
	case JobRunning:
		return true
	default:
		return false
	}
}

// completeCell records a computed cell and closes the job when all
// cells are in.
func (j *Job) completeCell(i int, res *CellResult, cached bool) {
	j.mu.Lock()
	if j.results[i] == nil {
		j.results[i] = res
		j.done++
		if cached {
			j.cacheHits++
		}
		if j.done == len(j.cells) {
			j.finish(JobDone, nil)
			return
		}
		j.notifyLocked()
	}
	j.mu.Unlock()
}

// finish is the job's one terminal transition: the first caller wins
// and every later call changes nothing. It is entered with j.mu held —
// so the last completeCell publishes its cell and JobDone in one step —
// and releases it.
func (j *Job) finish(state JobState, err error) {
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.state, j.err = state, err
	hits := j.cacheHits
	close(j.terminal)
	j.notifyLocked()
	j.mu.Unlock()
	log := j.sched.obs.Log
	if state == JobDone {
		// Every cell ran, so the job left the queue with its last one and
		// nothing is left for the context to stop.
		log.Info("job done", "job_id", j.id, "cells", len(j.cells), "cache_hits", hits)
		return
	}
	j.cancel()
	j.sched.dequeue(j)
	if state == JobCancelled {
		j.sched.obs.cancellations.Inc()
		log.Info("job cancelled", "job_id", j.id)
	} else {
		log.Warn("job failed", "job_id", j.id, "error", err.Error())
	}
}
