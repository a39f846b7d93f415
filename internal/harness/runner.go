// Package harness runs repeated simulation trials in parallel with
// deterministic per-trial seeding, provides the registry of graph
// families used across experiments, and offers the Measure* helpers
// that sample the spreading time of one process on one graph. Grids of
// (family, size) cells are the service's business (JobSpec), not this
// package's.
//
// The harness sits below the service layer: internal/service's cell
// kinds use Runner for per-trial seeding and (bounded) trial
// parallelism, while cells themselves are the unit of parallelism in
// the scheduler and the executor. The Measure* helpers remain the
// direct, cache-free path used by the public facade and the examples;
// they and the cell kinds run their trials through the one pooled loop,
// Runner.RunTrials.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"rumor/internal/core"
	"rumor/internal/xrand"
)

// ErrNoTrials reports a runner configured without trials.
var ErrNoTrials = errors.New("harness: trials must be >= 1")

// Runner executes independent trials concurrently. Each trial t receives
// its own RNG stream derived from (Seed, t), so results are a pure
// function of the configuration regardless of scheduling.
type Runner struct {
	// Trials is the number of trials (must be >= 1).
	Trials int
	// Seed is the root seed; trial t uses Child(t).
	Seed uint64
	// Workers caps concurrency; 0 means GOMAXPROCS.
	Workers int
}

// Run executes fn for each trial and returns results indexed by trial.
// The first error (by trial index) aborts the run: no further trial is
// handed out, workers finish the one they are in, and the error is
// returned. Trials are handed out in index order, so every trial below
// a failing one has been started and finishes — which error is reported
// does not depend on scheduling.
func (r Runner) Run(fn func(trial int, rng *xrand.RNG) (float64, error)) ([]float64, error) {
	if r.Trials < 1 {
		return nil, ErrNoTrials
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > r.Trials {
		workers = r.Trials
	}
	root := xrand.New(r.Seed)
	results := make([]float64, r.Trials)
	errs := make([]error, r.Trials)
	var mu sync.Mutex
	next := 0 // the next trial to hand out; r.Trials once any trial has failed
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				t := next
				next++
				mu.Unlock()
				if t >= r.Trials {
					return
				}
				rng := root.Child(uint64(t))
				v, err := fn(t, rng)
				results[t] = v
				errs[t] = err
				if err != nil {
					mu.Lock()
					next = r.Trials
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for t, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("harness: trial %d: %w", t, err)
		}
	}
	return results, nil
}

// RunTrials is Run over compiled scenarios, the one place a Runner drives
// core.Trials. Trials are pooled across the workers for the length of the
// call: compile makes one when the pool has none, and Trial.Run rewinds
// the engine's arenas, so steady-state trials allocate nothing. measure
// gets each trial's index, outcome and run error (a budget or topology
// failure comes with the partial outcome) and returns the trial's value;
// the outcome's slices are the trial's arenas, valid only until measure
// returns. A cancelled ctx fails the trials not yet started.
func (r Runner) RunTrials(ctx context.Context, compile func() (*core.Trial, error), measure func(trial int, out core.Outcome, err error) (float64, error)) ([]float64, error) {
	var pool sync.Pool // per call, so pooled trials always match compile
	return r.Run(func(t int, rng *xrand.RNG) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		trial, _ := pool.Get().(*core.Trial)
		if trial == nil {
			var err error
			if trial, err = compile(); err != nil {
				return 0, err
			}
		}
		defer pool.Put(trial)
		out, err := trial.Run(rng)
		return measure(t, out, err)
	})
}
