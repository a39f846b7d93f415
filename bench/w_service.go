package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"rumor/client"
	"rumor/internal/cachestore"
	"rumor/internal/service"
)

// serviceLoad is what the two service workloads share: one loopback
// rumord over a cachestore directory, nproc SDK clients in a closed
// loop of RunCells jobs, and a sample of returned rows kept for the
// byte-identity check.
type serviceLoad struct {
	e       *env
	name    string
	dir     string
	d       *daemon
	clients []*client.Client
	lb      *loopback
	// jobOf maps the i-th submission onto a job number of smallJob.
	jobOf func(i int) int

	mu        sync.Mutex
	next      int // submissions so far, across timed sections
	delivered int // cells returned to callers
	jobsRun   int
	jobsBad   int                           // jobs that errored or came back short
	kept      map[int][]*service.CellResult // job number -> rows, for check

	// what the daemon reported when it was stopped
	finished bool
	sched    service.Metrics

	shadowRows, shadowFailed int
}

func openStore(dir string) (*cachestore.Store, error) {
	return cachestore.Open(cachestore.Options{
		Dir:            dir,
		KeyVersion:     service.CellKeyVersion,
		CompatVersions: service.CellKeyCompatVersions(),
	})
}

func (w *serviceLoad) start() error {
	var err error
	if w.d, err = startDaemon(daemonConfig{cacheDir: w.dir}); err != nil {
		return err
	}
	w.clients, w.lb, err = newClients(w.d, w.e.nproc)
	w.kept = make(map[int][]*service.CellResult)
	return err
}

type jobFunc func(c *client.Client, op int64, cells []service.CellSpec) ([]*service.CellResult, error)

// runJobs is the closed loop: each client submits its next job when its
// previous one has streamed back completely, until d has passed or the
// clients have between them taken maxJobs jobs (0 = no such limit). The
// limit is one count shared by the clients, so it means the same number
// of jobs however many cores, and so clients, the host has.
func (w *serviceLoad) runJobs(d time.Duration, maxJobs int, runJob jobFunc) (*sample, error) {
	s := &sample{workUnit: "cells", opUnit: fmt.Sprintf("job of %d cells, submit to last row", w.e.sc.jobCells)}
	var firstErr error
	start := time.Now()
	first := w.next
	// claim takes the next submission, unless the section has had its jobs.
	claim := func() (int, bool) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if maxJobs > 0 && w.next-first >= maxJobs {
			return 0, false
		}
		w.next++
		return w.next - 1, true
	}
	var wg sync.WaitGroup
	for _, c := range w.clients {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			for time.Since(start) < d {
				i, ok := claim()
				if !ok {
					return
				}
				j := w.jobOf(i)
				cells := smallJob(w.e.seed, j, w.e.sc.jobCells)
				t0 := time.Now()
				res, err := runJob(c, int64(i), cells)
				took := time.Since(t0).Seconds()
				w.mu.Lock()
				w.jobsRun++
				s.ops = append(s.ops, took)
				if err != nil || len(res) != len(cells) {
					w.jobsBad++
					if firstErr == nil {
						firstErr = err
					}
				} else {
					w.delivered += len(res)
					s.work += float64(len(res))
					// One job in seven, spread over the run, until the
					// sample is checkCells big.
					if i%7 == 0 && len(w.kept)*w.e.sc.jobCells < w.e.sc.checkCells {
						w.kept[j] = res
					}
				}
				w.mu.Unlock()
				if err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	s.wall = time.Since(start).Seconds()
	if s.work == 0 {
		return nil, fmt.Errorf("%s: no job completed: %v", w.name, firstErr)
	}
	return s, nil
}

func plainJob(c *client.Client, _ int64, cells []service.CellSpec) ([]*service.CellResult, error) {
	return c.RunCells(context.Background(), cells)
}

// tracedJob is client.RunCells's own two calls — SubmitJob under the
// cells' idempotency key, then StreamResults — with spans at the SDK
// boundary: submit, the wait for the first row, the rest of the stream.
func tracedJob(tr *tracer) jobFunc {
	return func(c *client.Client, op int64, cells []service.CellSpec) ([]*service.CellResult, error) {
		ctx := context.Background()
		root := tr.start(spJob, -1, op)
		defer tr.end(root)
		sub := tr.start(spSubmit, root, op)
		st, err := c.SubmitJob(ctx, service.JobSpec{CellList: cells},
			client.WithIdempotencyKey(client.CellsIdempotencyKey(cells)))
		tr.end(sub)
		if err != nil {
			return nil, err
		}
		out := make([]*service.CellResult, len(cells))
		open := tr.start(spFirstRow, root, op)
		first := true
		err = c.StreamResults(ctx, st.ID, -1, func(res *service.CellResult) error {
			if first {
				first = false
				tr.end(open)
				open = tr.start(spStream, root, op)
			}
			if res.Index < 0 || res.Index >= len(out) {
				return fmt.Errorf("row index %d out of range", res.Index)
			}
			out[res.Index] = res
			return nil
		})
		tr.end(open)
		if err != nil {
			return nil, err
		}
		for i, r := range out {
			if r == nil {
				return nil, fmt.Errorf("stream ended without cell %d", i)
			}
		}
		return out, nil
	}
}

// execSpans are the names shadowRun records.
var execSpans = []string{spCell, spValidate, spKey, spCacheGet, spGraph, spTrials,
	spSummarize, spCachePut, spEncode, spDecode}

// tracedPass runs the traced client loop, then replays a sample of the
// workload's jobs through the shadow executor over an LRU and a store in
// shadowDir (tiers of the same shape as the daemon's), so that the caller's time per cell
// splits into the executor's calls and everything around them: the
// wire, the scheduler, and waiting behind the other client's cells.
func (w *serviceLoad) tracedPass(tr *tracer, d time.Duration, shadowDir string, shadowJob func(n int) int) (*tracedSample, error) {
	s, err := w.runJobs(d, w.e.sc.sectionJobs, tracedJob(tr))
	if err != nil {
		return nil, err
	}
	_, jobTime := tr.selfTimes() // only job spans so far
	callerPerCell := time.Duration(float64(jobTime) / s.work)

	// The daemon's directory may be the shadow's too: one store at a time.
	w.finish()
	store, err := openStore(shadowDir)
	if err != nil {
		return nil, err
	}
	results := service.NewTieredResultCache(service.NewResultCache(rumordResultCache), store)
	defer results.Close()
	graphs := service.NewGraphCache(rumordGraphCache)
	ref := &service.Executor{Graphs: graphs}
	replayed := 0
	for n := 0; n*w.e.sc.jobCells < w.e.sc.checkCells; n++ {
		cells := smallJob(w.e.seed, shadowJob(n), w.e.sc.jobCells)
		want, err := ref.RunCells(context.Background(), cells)
		if err != nil {
			return nil, err
		}
		for k, c := range cells {
			_, row, err := shadowRun(tr, int64(1<<40+replayed), k, c, results, graphs)
			if err != nil {
				return nil, err
			}
			replayed++
			w.shadowRows++
			if !bytes.Equal(row, rowOf(want[k])) {
				w.shadowFailed++
			}
		}
	}
	self, _ := tr.selfTimes()
	perCell := make(map[string]time.Duration, len(execSpans))
	for _, name := range execSpans {
		perCell[name] = self[name] / time.Duration(replayed)
	}
	return &tracedSample{work: s.work, wall: s.wall,
		phases: phaseShares(perCell, callerPerCell, true)}, nil
}

// finish flushes the persistent tier, records what the daemon counted,
// and stops it.
func (w *serviceLoad) finish() {
	if w.finished || w.d == nil {
		return
	}
	w.finished = true
	_ = w.d.tiered.Flush()
	w.sched = w.d.sched.Metrics()
	w.stop()
}

func (w *serviceLoad) stop() {
	if w.lb != nil {
		w.lb.close()
		w.lb = nil
	}
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
}

// checkCommon: every job complete, the kept rows byte-identical to an
// in-process executor's, nothing dropped by the write-behind queue.
func (w *serviceLoad) checkCommon() (attempted, failed int) {
	w.finish()
	attempted, failed = w.jobsRun, w.jobsBad
	for j, got := range w.kept {
		a, f := checkAgainstExecutor(smallJob(w.e.seed, j, w.e.sc.jobCells), got)
		attempted += a
		failed += f
	}
	attempted++
	if disk := w.sched.ResultCache.Disk; disk == nil || disk.Dropped != 0 {
		w.e.notef("%s: cachestore dropped writes: %+v", w.name, disk)
		failed++
	}
	attempted += w.shadowRows
	failed += w.shadowFailed
	return attempted, failed
}

// serviceSmallCells: every cell is new, so each one is a result-cache
// miss, microseconds of engine work, and a write-behind Put.
type serviceSmallCells struct{ serviceLoad }

func newServiceSmallCells(e *env) workload {
	w := &serviceSmallCells{serviceLoad{e: e, name: "service_small_cells"}}
	// Warm-up jobs take the numbers below warmupJobs, timed ones the rest.
	w.jobOf = func(i int) int { return i }
	return w
}

// setUp starts the daemon and its clients and runs warm-up jobs through
// the same path, so connections, the four graphs and the heap are in
// their steady state when timing starts.
func (w *serviceSmallCells) setUp() error {
	var err error
	if w.dir, err = w.e.tempDir("small"); err != nil {
		return err
	}
	if err := w.start(); err != nil {
		return err
	}
	ctx := context.Background()
	for i := 0; i < w.e.sc.warmupJobs; i++ {
		j := w.next
		w.next++
		if _, err := w.clients[i%len(w.clients)].RunCells(ctx, smallJob(w.e.seed, j, w.e.sc.jobCells)); err != nil {
			return err
		}
		w.delivered += w.e.sc.jobCells
	}
	return nil
}

func (w *serviceSmallCells) measure(d time.Duration) (*sample, error) {
	return w.runJobs(d, w.e.sc.sectionJobs, plainJob)
}

func (w *serviceSmallCells) traced(tr *tracer, d time.Duration) (*tracedSample, error) {
	dir, err := w.e.tempDir("small-shadow")
	if err != nil {
		return nil, err
	}
	// Replay jobs no client ran, into an empty store, so each shadow
	// cell is a miss and a Put as well.
	return w.tracedPass(tr, d, dir, func(n int) int { return 1<<30 + n })
}

// check adds: every delivered cell was computed (none served from a
// cache) and appended to the store.
func (w *serviceSmallCells) check() (attempted, failed int) {
	attempted, failed = w.checkCommon()
	attempted++
	if int(w.sched.CellsComputed) != w.delivered || w.sched.CellsCached != 0 ||
		int(w.sched.ResultCache.Disk.Appends) != w.delivered {
		w.e.notef("%s: delivered %d cells but computed %d, cached %d, appended %d", w.name,
			w.delivered, w.sched.CellsComputed, w.sched.CellsCached, w.sched.ResultCache.Disk.Appends)
		failed++
	}
	return attempted, failed
}

func (w *serviceSmallCells) tearDown() { w.stop() }

// serviceWarmReplay: the same jobs against a store that already holds
// every cell and is larger than the LRU, so each cell is a disk-tier
// hit, a decode, a promotion and a streamed row — and no engine work.
type serviceWarmReplay struct{ serviceLoad }

func newServiceWarmReplay(e *env) workload {
	w := &serviceWarmReplay{serviceLoad{e: e, name: "service_warm_replay"}}
	// Passes over the same replayJobs jobs, in order. A pass is longer
	// than both the LRU (cells) and the daemon's job retention (jobs),
	// so neither the memory tier nor an idempotent replay of a retained
	// job can serve a cell.
	w.jobOf = func(i int) int { return i % e.sc.replayJobs }
	return w
}

// setUp computes every cell into a fresh cachestore directory, flushes
// and closes it, then opens it again under a daemon (the replay of the
// directory happens in that Open).
func (w *serviceWarmReplay) setUp() error {
	var err error
	if w.dir, err = w.e.tempDir("replay"); err != nil {
		return err
	}
	store, err := openStore(w.dir)
	if err != nil {
		return err
	}
	tiers := service.NewTieredResultCache(service.NewResultCache(rumordResultCache), store)
	ex := &service.Executor{Results: tiers, Graphs: service.NewGraphCache(rumordGraphCache)}
	var batch []service.CellSpec
	for j := 0; j < w.e.sc.replayJobs; j++ {
		batch = append(batch, smallJob(w.e.seed, j, w.e.sc.jobCells)...)
		// Flush well inside the store's write-behind queue bound, which
		// drops (rather than blocks on) a Put it has no room for.
		if len(batch) >= cachestore.DefaultQueueLimit/2 || j == w.e.sc.replayJobs-1 {
			if _, err := ex.RunCells(context.Background(), batch); err != nil {
				tiers.Close()
				return err
			}
			if err := tiers.Flush(); err != nil {
				tiers.Close()
				return err
			}
			batch = batch[:0]
		}
	}
	st := store.Stats()
	if err := tiers.Close(); err != nil {
		return err
	}
	if want := w.e.sc.replayJobs * w.e.sc.jobCells; st.Dropped != 0 || st.Records != want {
		return fmt.Errorf("pre-population left %d records (want %d), %d dropped", st.Records, want, st.Dropped)
	}
	return w.start()
}

func (w *serviceWarmReplay) measure(d time.Duration) (*sample, error) {
	return w.runJobs(d, w.e.sc.sectionJobs, plainJob)
}

func (w *serviceWarmReplay) traced(tr *tracer, d time.Duration) (*tracedSample, error) {
	return w.tracedPass(tr, d, w.dir, func(n int) int { return n })
}

// check adds: the daemon computed nothing, and every delivered cell was
// a disk-tier hit.
func (w *serviceWarmReplay) check() (attempted, failed int) {
	attempted, failed = w.checkCommon()
	attempted++
	rc := w.sched.ResultCache
	if w.sched.CellsComputed != 0 || int(rc.DiskHits) != w.delivered || rc.MemHits != 0 {
		w.e.notef("%s: delivered %d cells: computed %d, disk hits %d, memory hits %d", w.name,
			w.delivered, w.sched.CellsComputed, rc.DiskHits, rc.MemHits)
		failed++
	}
	return attempted, failed
}

func (w *serviceWarmReplay) tearDown() { w.stop() }
