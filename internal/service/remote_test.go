package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// fakeStreamRemote is a CellRunner backed by a real Executor:
// delegation semantics under test, real results for byte-comparison.
// Delivery is gated per cell so tests can observe mid-batch progress
// deterministically.
type fakeStreamRemote struct {
	exec  Executor
	calls atomic.Int32
	fail  error
	gate  chan struct{} // when non-nil, each delivery after the first consumes one token
}

func (f *fakeStreamRemote) StreamCells(ctx context.Context, cells []CellSpec, fn func(*CellResult) error) ([]*CellResult, error) {
	f.calls.Add(1)
	if f.fail != nil {
		return nil, f.fail
	}
	results := make([]*CellResult, len(cells))
	for i, cell := range cells {
		if f.gate != nil && i > 0 {
			select {
			case <-f.gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		res, _, err := f.exec.Run(ctx, i, cell)
		if err != nil {
			return nil, err
		}
		results[i] = res
		if fn != nil {
			if err := fn(res); err != nil {
				return nil, err
			}
		}
	}
	return results, nil
}

// A scheduler with a Remote must hand the whole job to it — no local
// execution — and the job's observable lifecycle (WaitCell, status,
// results) must be indistinguishable from a local run.
func TestSchedulerRemoteDelegation(t *testing.T) {
	remote := &fakeStreamRemote{}
	remote.exec.Graphs = NewGraphCache(8)
	s := newTestScheduler(t, SchedulerConfig{Workers: 1, Remote: remote})
	spec := gridSpec()
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := collectResults(t, job)
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := job.Status(); st.State != JobDone || st.CellsDone != job.NumCells() {
		t.Fatalf("status = %+v, want done with all cells", st)
	}
	if n := remote.calls.Load(); n != 1 {
		t.Errorf("remote called %d times, want 1", n)
	}
	// A coordinator computes nothing: the Workers it was configured with
	// are neither started nor reported.
	if m := s.Metrics(); m.Workers != 0 {
		t.Errorf("coordinator reports %d local workers, want 0", m.Workers)
	}

	local := Executor{Graphs: NewGraphCache(8)}
	want, err := local.RunCells(context.Background(), spec.Cells())
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(got, want) {
		t.Error("delegated results differ from a local run")
	}
}

// Streaming delegation is incremental: a waiter on cell 0 unblocks
// while the remote still holds the rest of the batch.
func TestSchedulerRemoteStreamsIncrementally(t *testing.T) {
	remote := &fakeStreamRemote{gate: make(chan struct{})}
	remote.exec.Graphs = NewGraphCache(8)
	s := newTestScheduler(t, SchedulerConfig{Workers: 1, Remote: remote})
	job, err := s.Submit(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := job.WaitCell(ctx, 0); err != nil {
		t.Fatalf("cell 0 did not stream out before the batch finished: %v", err)
	}
	if st := job.Status(); st.State != JobRunning {
		t.Errorf("job state = %s mid-stream, want running", st.State)
	}
	for i := 1; i < job.NumCells(); i++ {
		remote.gate <- struct{}{}
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
}

// A remote failure fails the job (surfaced via Wait and the status
// error), and does not wedge the scheduler.
func TestSchedulerRemoteFailureFailsJob(t *testing.T) {
	boom := fmt.Errorf("all peers dead")
	remote := &fakeStreamRemote{}
	remote.fail = boom
	s := newTestScheduler(t, SchedulerConfig{Workers: 1, Remote: remote})
	job, err := s.Submit(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); !errors.Is(err, boom) {
		t.Fatalf("job error = %v, want %v", err, boom)
	}
	if st := job.Status(); st.State != JobFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
}

// Cancelling a delegated job cancels the remote context and lands in
// cancelled — not failed — state.
func TestSchedulerRemoteCancel(t *testing.T) {
	remote := &fakeStreamRemote{gate: make(chan struct{})}
	remote.exec.Graphs = NewGraphCache(8)
	s := newTestScheduler(t, SchedulerConfig{Workers: 1, Remote: remote})
	job, err := s.Submit(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := job.WaitCell(ctx, 0); err != nil {
		t.Fatal(err)
	}
	job.Cancel()
	if err := job.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("job error = %v, want context.Canceled", err)
	}
	if st := job.Status(); st.State != JobCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
}
