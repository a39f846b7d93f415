package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rumor/internal/experiments"
	"rumor/internal/service"
)

// suiteSeedPool bounds the quick-suite seeds the workload draws from.
// A verdict is a statistical test at quick-suite sample sizes, so some
// seed could fail one by chance; every seed in 1..suiteSeedPool was run
// on this code when the benchmark was defined and none did (see
// README.md), which makes a FAILED verdict here a change in behaviour.
const suiteSeedPool = 256

// suiteSeed is the suite seed of run i under -seed: a walk through the
// vetted pool that starts where -seed says.
func suiteSeed(seed uint64, i int) uint64 {
	return 1 + (mix(seed, 6)+uint64(i))%suiteSeedPool
}

// suiteRun is one cold pass of the quick suite and what it left behind.
type suiteRun struct {
	seed     uint64
	runner   *service.Executor
	outcomes []*experiments.Outcome
	err      error
}

// suiteCold is experiments.RunAll(Quick) — all 16 experiments, 174
// cells — on a fresh NewLocalRunner(nproc, true) per seed: the time a
// paper-reproduction user waits for verdicts.
type suiteCold struct {
	e     *env
	cells int
	runs  []suiteRun
	// shadowFailed counts traced-pass rows that differ from the
	// executor's, shadowRows the rows compared.
	shadowRows, shadowFailed int
}

func newSuiteCold(e *env) workload { return &suiteCold{e: e} }

func (w *suiteCold) config(seed uint64, r service.CellRunner) experiments.Config {
	return experiments.Config{Quick: true, Seed: seed, Workers: w.e.nproc, Runner: r}
}

func (w *suiteCold) cold(seed uint64) (suiteRun, time.Duration) {
	r := suiteRun{seed: seed, runner: experiments.NewLocalRunner(w.e.nproc, true)}
	start := time.Now()
	r.outcomes, r.err = experiments.RunAll(w.config(seed, r.runner))
	return r, time.Since(start)
}

// setUp counts the grid and runs the suite once on a seed the timed
// section never uses, so heap growth and first-touch page faults are
// paid before timing rather than by the first sample.
func (w *suiteCold) setUp() error {
	cfg := w.config(suiteSeed(w.e.seed, 0), nil)
	w.cells = 0
	for _, ex := range experiments.All() {
		w.cells += len(ex.Cells(cfg))
	}
	for i := 0; i < w.e.sc.suiteWarmups; i++ {
		if r, _ := w.cold(suiteSeed(w.e.seed, suiteSeedPool-1-i)); r.err != nil {
			return r.err
		}
	}
	return nil
}

func (w *suiteCold) measure(d time.Duration) (*sample, error) {
	s := &sample{workUnit: "cells", opUnit: "suite run"}
	for i := len(w.runs); ; i++ {
		r, took := w.cold(suiteSeed(w.e.seed, i))
		w.runs = append(w.runs, r)
		s.ops = append(s.ops, took.Seconds())
		s.wall += took.Seconds()
		s.work += float64(w.cells)
		if (w.e.sc.maxOps > 0 && len(s.ops) >= w.e.sc.maxOps) || s.wall >= d.Seconds() {
			return s, nil
		}
	}
}

// check: no cell error, no FAILED verdict, and a warm re-run on the same
// runner (every cell a cache hit) reproduces the cold outcomes exactly.
func (w *suiteCold) check() (attempted, failed int) {
	for _, r := range w.runs {
		attempted += w.cells
		if r.err != nil {
			w.e.notef("suite_cold: seed %d: %v", r.seed, r.err)
			failed++
			continue
		}
		for _, o := range r.outcomes {
			attempted++
			if o.Verdict == experiments.Failed {
				w.e.notef("suite_cold: seed %d: %s FAILED: %s", r.seed, o.ID, o.Summary)
				failed++
			}
		}
		attempted++
		warm, err := experiments.RunAll(w.config(r.seed, r.runner))
		same := err == nil && len(warm) == len(r.outcomes)
		for i := 0; same && i < len(warm); i++ {
			same = warm[i].Verdict == r.outcomes[i].Verdict &&
				warm[i].Summary == r.outcomes[i].Summary &&
				warm[i].Details == r.outcomes[i].Details
		}
		if !same {
			w.e.notef("suite_cold: seed %d: warm re-run differs from the cold run", r.seed)
			failed++
		}
	}
	attempted += w.shadowRows
	failed += w.shadowFailed
	return attempted, failed
}

// traced replays whole suites through the shadow executor: per
// experiment, its cells on nproc goroutines over a shared LRU and graph
// cache (what RunAll's runner does), then its reducer, with spans. Each
// row is compared with the executor's own for the same cell, taken from
// an untraced run of the same seed.
func (w *suiteCold) traced(tr *tracer, d time.Duration) (*tracedSample, error) {
	ts := &tracedSample{}
	var op atomic.Int64
	for i := 0; ; i++ {
		seed := suiteSeed(w.e.seed, i)
		ref, _ := w.cold(seed)
		if ref.err != nil {
			return nil, ref.err
		}
		results := service.NewResultCache(0)
		graphs := service.NewGraphCache(0)
		start := time.Now()
		for _, ex := range experiments.All() {
			cfg := w.config(seed, nil)
			cells := ex.Cells(cfg)
			out := make([]*service.CellResult, len(cells))
			rows := make([][]byte, len(cells))
			errs := make([]error, len(cells))
			var next atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < w.e.nproc; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						k := int(next.Add(1)) - 1
						if k >= len(cells) {
							return
						}
						out[k], rows[k], errs[k] = shadowRun(tr, op.Add(1), k, cells[k], results, graphs)
					}
				}()
			}
			wg.Wait()
			for k, err := range errs {
				if err != nil {
					return nil, fmt.Errorf("%s cell %d: %w", ex.ID, k, err)
				}
			}
			id := tr.start(spReduce, -1, op.Add(1))
			_, err := ex.Reduce(cfg, out)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ex.ID, err)
			}
			for k, c := range cells {
				w.shadowRows++
				want, ok := ref.runner.Results.Get(c.Key())
				if !ok {
					w.shadowFailed++
					continue
				}
				indexed := *want
				indexed.Index = k
				if !bytes.Equal(rowOf(&indexed), rows[k]) {
					w.shadowFailed++
				}
			}
		}
		ts.wall += time.Since(start).Seconds()
		ts.work += float64(w.cells)
		if w.e.sc.maxOps > 0 || ts.wall >= d.Seconds() {
			break
		}
	}
	self, top := tr.selfTimes()
	ts.phases = phaseShares(self, top, false)
	return ts, nil
}

func (w *suiteCold) tearDown() { w.runs = nil }
