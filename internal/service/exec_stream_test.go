package service

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

// TestExecutorStreamCells: fn sees every cell exactly once and one call
// at a time (the race detector watches its unguarded counters), the
// returned batch is RunCells', and an fn error stops the batch and comes
// back as is.
func TestExecutorStreamCells(t *testing.T) {
	ctx := context.Background()
	cells := testCells(32)
	seen := make([]int, len(cells))
	inFn := 0
	got, err := (&Executor{CellWorkers: 4}).StreamCells(ctx, cells, func(res *CellResult) error {
		inFn++
		if inFn != 1 {
			t.Errorf("fn entered with %d calls in flight", inFn)
		}
		seen[res.Index]++
		runtime.Gosched()
		inFn--
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("cell %d handed to fn %d times", i, n)
		}
	}
	want, err := (&Executor{CellWorkers: 1}).RunCells(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshalResults(t, got)) != string(marshalResults(t, want)) {
		t.Error("StreamCells' batch differs from RunCells'")
	}

	// fn runs on this goroutine, beside the workers: cells of a few
	// milliseconds each leave it ample time to stop a 64-cell batch.
	slow := testCells(64)
	for i := range slow {
		slow[i].Trials = 2000
	}
	stop := errors.New("stop")
	e := &Executor{CellWorkers: 2, Results: NewResultCache(0)}
	calls := 0
	_, err = e.StreamCells(ctx, slow, func(*CellResult) error {
		calls++
		if calls == 3 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("StreamCells returned %v, want fn's own error", err)
	}
	if calls != 3 {
		t.Errorf("fn called %d times, want 3: no call after its error", calls)
	}
	if started := e.Results.Stats().Misses; started >= 64 {
		t.Errorf("all %d cells started after fn failed; the batch should stop", started)
	}
}
