package harness

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rumor/internal/core"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// Scheduling independence on a real simulation workload: the measured
// spreading-time sample must be bit-identical for 1 worker and 8
// workers, because each trial's RNG stream is derived from (Seed,
// trial), never from goroutine interleaving.
func TestRunnerSchedulingIndependenceSimulation(t *testing.T) {
	g, err := graph.Hypercube(7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []float64 {
		r := Runner{Trials: 64, Seed: 11, Workers: workers}
		times, err := r.Run(func(_ int, rng *xrand.RNG) (float64, error) {
			res, err := core.RunAsync(g, 0, core.AsyncConfig{Protocol: core.PushPull}, rng)
			if err != nil {
				return 0, err
			}
			return res.Time, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return times
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("trial %d: %v (1 worker) != %v (8 workers)", i, serial[i], parallel[i])
		}
	}
}

// When several trials fail, the error reported is the one of the lowest
// trial index — regardless of worker count and completion order.
func TestRunnerFirstErrorByTrialIndex(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		r := Runner{Trials: 40, Seed: 1, Workers: workers}
		_, err := r.Run(func(trial int, _ *xrand.RNG) (float64, error) {
			if trial%2 == 1 { // trials 1, 3, 5, ... all fail
				return 0, fmt.Errorf("trial-%d failed", trial)
			}
			return 1, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error reported", workers)
		}
		want := "harness: trial 1: trial-1 failed"
		if err.Error() != want {
			t.Errorf("workers=%d: err = %q, want %q (first by trial index)", workers, err, want)
		}
	}
}

// A failed trial stops the run: a cell whose trial 0 fails on every
// draw (a disconnected static graph) does not run its other 9 999
// trials. The trials already handed out are parked until well after
// trial 0 has returned, so they are all that was ever started.
func TestRunnerStopsHandingOutAfterFailure(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		release := make(chan struct{})
		_, err := Runner{Trials: 10000, Seed: 1, Workers: workers}.Run(func(trial int, _ *xrand.RNG) (float64, error) {
			calls.Add(1)
			if trial == 0 {
				time.AfterFunc(50*time.Millisecond, func() { close(release) })
				return 0, errors.New("graph is disconnected")
			}
			<-release
			return 1, nil
		})
		if want := "harness: trial 0: graph is disconnected"; err == nil || err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %q", workers, err, want)
		}
		if got := calls.Load(); got > int64(workers)+4 {
			t.Errorf("workers=%d: %d of 10000 trials ran after trial 0 failed", workers, got)
		}
	}
}

// TestRunTrialsPoolsCompiledTrials: the pooled loop compiles a trial only
// when it has none to reuse, a reused trial gives what a fresh one gives
// (the sample does not depend on the worker count), the run's error
// reaches measure beside the partial outcome, and a cancelled context
// stops it.
func TestRunTrialsPoolsCompiledTrials(t *testing.T) {
	g, err := graph.Hypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	var compiled atomic.Int64
	compile := func(cfg core.AsyncConfig) func() (*core.Trial, error) {
		return func() (*core.Trial, error) {
			compiled.Add(1)
			return core.NewTrial(graph.NewStatic(g), 0, cfg, 0, false)
		}
	}
	spread := func(_ int, out core.Outcome, err error) (float64, error) {
		if err != nil {
			return 0, err
		}
		return out.SpreadingTime()
	}
	cfg := core.AsyncConfig{Protocol: core.PushPull}
	one, err := Runner{Trials: 40, Seed: 9, Workers: 1}.RunTrials(context.Background(), compile(cfg), spread)
	if err != nil {
		t.Fatal(err)
	}
	// (Under -race sync.Pool drops entries at random, so how few is not
	// checkable: only that compile is asked when the pool is empty.)
	if n := compiled.Swap(0); n < 1 || n > 40 {
		t.Errorf("one worker compiled %d trials for 40 runs", n)
	}
	four, err := Runner{Trials: 40, Seed: 9, Workers: 4}.RunTrials(context.Background(), compile(cfg), spread)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("trial %d: %v on a reused trial, %v across four workers", i, one[i], four[i])
		}
	}

	cfg.MaxSteps = 3
	_, err = Runner{Trials: 2, Seed: 9, Workers: 1}.RunTrials(context.Background(), compile(cfg), func(_ int, out core.Outcome, err error) (float64, error) {
		if !errors.Is(err, core.ErrBudget) || out.Work() != 3 {
			t.Errorf("measure got err %v after %d ticks, want the budget error beside 3", err, out.Work())
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Runner{Trials: 2, Seed: 9}).RunTrials(ctx, compile(cfg), spread); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: %v", err)
	}
}
