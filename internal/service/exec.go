package service

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rumor/internal/graph"
	"rumor/internal/stats"
)

// CellRunner is the one door to the execution spine: the in-process
// Executor, the daemon's Scheduler, the SDK Client, the shard
// Coordinator and the live cluster all implement it, so callers (the
// CLIs, the experiment suite, a -peers daemon, tests) run the same cells
// through any of them without changing anything else.
//
// StreamCells runs a batch and returns its results indexed like the
// input. fn (which may be nil) is called serially, once per delivered
// cell, with the cell's batch index in Index; delivery order is the
// runner's own (completion order for an Executor, canonical order for a
// Scheduler). An fn error stops the batch, is returned as is, and fn is
// not called again. An empty batch is an error wrapping ErrBadSpec.
type CellRunner interface {
	StreamCells(ctx context.Context, cells []CellSpec, fn func(*CellResult) error) ([]*CellResult, error)
}

// Executor runs single cells through the two-tier cache: result hits
// return immediately, graph hits skip adjacency construction, and
// misses run the cell's kind. The rumord scheduler workers, the
// rumorsim CLI, and the experiment suite all use this one path, so a
// result computed by any of them is byte-identical (and cache-shareable)
// with the others.
type Executor struct {
	// Results is the completed-cell cache (the in-memory LRU, or the
	// tiered LRU-over-disk store); nil disables result caching.
	Results ResultStore
	// Graphs is the constructed-graph LRU; nil disables graph sharing.
	Graphs *GraphCache
	// TrialWorkers bounds the per-cell trial parallelism. 0 gives a
	// computing cell its own core plus those nothing else of this
	// executor holds, up to its Trials: a lone Run gets min(Trials,
	// GOMAXPROCS), a cell of a full RunCells batch 1.
	TrialWorkers int
	// CellWorkers bounds how many cells RunCells executes concurrently;
	// 0 means GOMAXPROCS. This is the single parallelism knob for
	// local batch runs — the scheduler's worker pool is its equivalent
	// for daemon runs.
	CellWorkers int
	// Obs instruments cell execution (per-kind latency and outcome
	// counters); nil means off. Because the scheduler's workers and
	// local RunCells both funnel through Run, one instrument covers the
	// daemon and the CLI alike.
	Obs *Observability

	// engineUpdates accumulates KindResult.Work across computed cells:
	// total engine node updates this executor has simulated. Mirrored
	// to rumor_engine_node_updates_total.
	engineUpdates atomic.Int64
	// claimed counts the cores this executor's cells hold (see claim).
	claimed atomic.Int64
}

// EngineUpdates returns the total engine node updates simulated by
// cells computed (not cache-served) through this executor.
func (e *Executor) EngineUpdates() int64 { return e.engineUpdates.Load() }

// Run executes one cell (or serves it from cache) and returns its
// result re-indexed to index. The bool reports whether the result came
// from the cache. ctx cancels between trials; a cancelled run returns
// ctx's error and caches nothing.
func (e *Executor) Run(ctx context.Context, index int, cell CellSpec) (*CellResult, bool, error) {
	return e.run(ctx, index, cell, 0)
}

// run is Run for a caller already holding held cores (see claim).
func (e *Executor) run(ctx context.Context, index int, cell CellSpec, held int) (*CellResult, bool, error) {
	if err := cell.Validate(); err != nil {
		return nil, false, err
	}
	o := e.Obs.orOff()
	key := cell.Key()
	if e.Results != nil {
		if cached, ok := e.Results.Get(key); ok {
			// The row echoes this request's spelling of the cell, not
			// the one that computed the result.
			res := *cached
			res.Index, res.Cell = index, cell
			o.observeCell(cell.kind(), "cached", 0)
			return &res, true, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}

	start := time.Now()
	kind, err := KindByName(cell.kind())
	if err != nil {
		o.observeCell(cell.kind(), "error", 0)
		return nil, false, err
	}
	var g *graph.Graph
	var graphBuild time.Duration // this cell's own build; 0 when the graph was cached
	if kind.NeedsGraph {
		g, graphBuild, err = e.Graphs.get(ctx, cell)
		if err != nil {
			if ctx.Err() == nil {
				// Giving up the wait for another cell's build is a
				// cancellation, not a build failure.
				o.observeCell(cell.kind(), "error", 0)
			}
			return nil, false, fmt.Errorf("service: building %s(%d): %w", cell.Family, cell.N, err)
		}
		if graphBuild > 0 {
			o.graphBuild.Observe(graphBuild.Seconds())
		}
	}

	workers, claim := e.TrialWorkers, 0
	if workers <= 0 {
		workers, claim = e.claim(cell.Trials, held)
	}
	trialsStart := time.Now()
	kr, err := kind.Run(ctx, cell, g, workers)
	e.claimed.Add(int64(-claim))
	if err != nil {
		if ctx.Err() == nil {
			// A context abort is a cancellation, not a kind failure.
			o.observeCell(cell.kind(), "error", 0)
		}
		return nil, false, err
	}
	trials := time.Since(trialsStart)
	o.cellTrials.Observe(trials.Seconds())
	e.engineUpdates.Add(kr.Work)
	o.engineUpdates.Add(float64(kr.Work))
	res := NewCellResult(cell, key, g, kr)
	if e.Results != nil {
		e.Results.Put(key, res)
	}
	took := time.Since(start)
	o.observeCell(cell.kind(), "computed", took)
	o.Log.LogAttrs(ctx, slog.LevelDebug, "cell computed",
		slog.String("kind", cell.kind()), slog.String("key", key),
		slog.Float64("duration_ms", took.Seconds()*1e3),
		slog.Float64("graph_build_ms", graphBuild.Seconds()*1e3),
		slog.Float64("trials_ms", trials.Seconds()*1e3),
		slog.Int("trial_workers", workers))
	out := *res
	out.Index = index
	return &out, false, nil
}

// claim takes a cell's own core unless its caller holds it (held, 1 for
// a RunCells worker), then up to trials−1 more while fewer than
// GOMAXPROCS are claimed. It returns the trial workers and the count to
// release when the trials end.
func (e *Executor) claim(trials, held int) (workers, claimed int) {
	own := int64(1 - held)
	for c := e.claimed.Add(own); ; c = e.claimed.Load() {
		extra := min(int64(trials-1), int64(runtime.GOMAXPROCS(0))-c)
		if extra <= 0 {
			return 1, int(own)
		}
		if e.claimed.CompareAndSwap(c, c+extra) {
			return 1 + int(extra), int(own + extra)
		}
	}
}

// NewCellResult wraps what a cell's kind measured on g (nil for a
// graphless kind) into the cell's result, summarizing Times; the caller
// sets Index. Every runner builds its results here, so a cell reads the
// same whichever door it came through.
func NewCellResult(cell CellSpec, key string, g *graph.Graph, kr *KindResult) *CellResult {
	res := &CellResult{
		Cell:     cell,
		Key:      key,
		Times:    kr.Times,
		Summary:  stats.Summarize(kr.Times),
		Coverage: kr.Coverage,
		Series:   kr.Series,
		Values:   kr.Values,
	}
	if g != nil {
		res.Graph = g.Name()
		res.N = g.NumNodes()
		res.M = g.NumEdges()
	}
	return res
}

// RunCells is StreamCells with no callback.
func (e *Executor) RunCells(ctx context.Context, cells []CellSpec) ([]*CellResult, error) {
	return e.StreamCells(ctx, cells, nil)
}

// StreamCells implements CellRunner: it executes the cells on a bounded
// worker pool (CellWorkers) and returns results indexed like the input,
// a pure function of the specs. fn gets each result as it completes, on
// the caller's goroutine. An error from fn, or else the first cell error
// by index, stops cells not yet started.
func (e *Executor) StreamCells(ctx context.Context, cells []CellSpec, fn func(*CellResult) error) ([]*CellResult, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("%w: no cells", ErrBadSpec)
	}
	workers := e.CellWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(cells))
	results := make([]*CellResult, len(cells))
	errs := make([]error, len(cells))
	done := make(chan int, len(cells)) // finished indices; never blocks a worker
	var next int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	// Claim every worker's core up front, or the first cell borrows them.
	e.claimed.Add(int64(workers))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer e.claimed.Add(-1)
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(cells) || failed.Load() || ctx.Err() != nil {
					return
				}
				res, _, err := e.run(ctx, i, cells[i], 1)
				results[i], errs[i] = res, err
				if err != nil {
					failed.Store(true)
				}
				done <- i
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	var fnErr error
	for i := range done {
		if fn != nil && fnErr == nil && errs[i] == nil {
			if fnErr = fn(results[i]); fnErr != nil {
				failed.Store(true)
			}
		}
	}
	if err := cmp.Or(ctx.Err(), fnErr); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("service: cell %d (%s): %w", i, cells[i].Key(), err)
		}
	}
	return results, nil
}
