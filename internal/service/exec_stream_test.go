package service

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
)

// TestHitEchoesItsOwnRequest: a row served from the cache carries the
// request's own spelling of the cell, not the one that computed the
// result, so its bytes are those of a cold run of the request.
func TestHitEchoesItsOwnRequest(t *testing.T) {
	cell := CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull", Timing: TimingAsync,
		View: "global-clock", Trials: 2, GraphSeed: 1, TrialSeed: 1}
	exec := &Executor{Results: NewResultCache(16), TrialWorkers: 1}
	if _, _, err := exec.Run(context.Background(), 0, cell); err != nil {
		t.Fatal(err)
	}
	for _, edit := range []func(*CellSpec){
		func(c *CellSpec) { c.View = "" },
		func(c *CellSpec) { c.Protocol = "pp" },
	} {
		request := cell
		edit(&request)
		warm, hit, err := exec.Run(context.Background(), 0, request)
		if err != nil || !hit {
			t.Fatalf("Run(%+v) = hit %v, %v; want a hit", request, hit, err)
		}
		cold, _, err := (&Executor{TrialWorkers: 1}).Run(context.Background(), 0, request)
		if err != nil {
			t.Fatal(err)
		}
		warmRow, ok1 := appendResult(nil, warm)
		coldRow, ok2 := appendResult(nil, cold)
		if !ok1 || !ok2 || !bytes.Equal(warmRow, coldRow) {
			t.Errorf("warm row differs from the cold row:\nwarm: %s\ncold: %s", warmRow, coldRow)
		}
	}
}

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
