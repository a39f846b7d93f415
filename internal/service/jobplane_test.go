package service

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"rumor/internal/graph"
)

// The recording test kind reports each cell's start (its TrialSeed, which
// the tests use as a (job, cell) tag) and then parks until the test hands
// it a release token, so a one-worker scheduler runs exactly the cells the
// test lets it, in an order the test can read. A cell with Params["fail"]
// set fails when released. Registered once (the kind table is
// process-global); each test swaps in fresh channels.
var (
	orderMu       sync.Mutex
	orderStarted  chan uint64
	orderRelease  chan struct{}
	orderKindOnce sync.Once
	errOrderCell  = errors.New("pin-order: cell told to fail")
)

func armOrderKind() (started chan uint64, release chan struct{}) {
	orderKindOnce.Do(func() {
		MustRegisterKind(CellKind{
			Name: "pin-order",
			Run: func(ctx context.Context, cell CellSpec, _ *graph.Graph, _ int) (*KindResult, error) {
				orderMu.Lock()
				started, release := orderStarted, orderRelease
				orderMu.Unlock()
				select {
				case started <- cell.TrialSeed:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				if cell.Params["fail"] != 0 {
					return nil, errOrderCell
				}
				return &KindResult{Times: []float64{float64(cell.TrialSeed)}}, nil
			},
		})
	})
	started, release = make(chan uint64), make(chan struct{})
	orderMu.Lock()
	orderStarted, orderRelease = started, release
	orderMu.Unlock()
	return started, release
}

// orderCells returns n pin-order cells tagged job*10 + index.
func orderCells(job, n int) []CellSpec {
	cells := make([]CellSpec, n)
	for i := range cells {
		cells[i] = CellSpec{Kind: "pin-order", Trials: 1, TrialSeed: uint64(job*10 + i)}
	}
	return cells
}

// recv takes one event from ch, failing the test on a wedge.
func recv[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestQueueOrderTable pins the scheduling order and the queue-depth
// accounting of the job plane: cells start by (priority desc, submission
// order, cell index), a cell already running is not preempted, and a
// cancelled job's unstarted cells leave the queue at once.
func TestQueueOrderTable(t *testing.T) {
	started, release := armOrderKind()
	s := newTestScheduler(t, SchedulerConfig{Workers: 1})
	depth := func(when string, want int) {
		t.Helper()
		if got := s.Metrics().QueueDepth; got != want {
			t.Errorf("queue depth %s = %d, want %d", when, got, want)
		}
	}
	var order []uint64
	start := func() {
		t.Helper()
		order = append(order, recv(t, started, "the next cell to start"))
	}
	finish := func() {
		t.Helper()
		select {
		case release <- struct{}{}:
		case <-time.After(30 * time.Second):
			t.Fatal("no running cell took the release token")
		}
	}

	a, err := s.SubmitCells(orderCells(1, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	start() // A0 occupies the only worker before anything else is queued
	depth("with A0 running", 2)
	b, err := s.SubmitCells(orderCells(2, 3), 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.SubmitCells(orderCells(3, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	depth("after submit", 7)

	finish() // A0
	start()  // B0: the high-priority job overtakes A's remaining cells
	depth("with B0 running", 6)
	b.Cancel() // aborts B0 through its context and drops B1, B2
	if st := b.Status(); st.State != JobCancelled || st.CellsDone != 0 {
		t.Errorf("B after cancel = %+v, want cancelled with no cells done", st)
	}
	start() // A1; read the depth only now, with the worker parked again
	depth("after cancelling B, with A1 running", 3)
	finish()
	for range 3 { // A2, C0, C1
		start()
		finish()
	}
	for name, job := range map[string]*Job{"A": a, "C": c} {
		recv(t, job.Terminal(), "job "+name+" to finish")
		if st := job.Status(); st.State != JobDone || st.CellsDone != job.NumCells() {
			t.Errorf("%s at drain = %+v, want done", name, st)
		}
	}
	depth("at drain", 0)
	if want := []uint64{10, 20, 11, 12, 30, 31}; !reflect.DeepEqual(order, want) {
		t.Errorf("start order = %v, want %v", order, want)
	}
}

// TestWaitCellAfterTermination pins what a reader gets from each cell of
// a job that failed part-way: a cell that finished first keeps its
// result, one that never ran reports ErrJobNotDone, and the caller's
// context wins over a cell that is merely not ready yet.
func TestWaitCellAfterTermination(t *testing.T) {
	started, release := armOrderKind()
	s := newTestScheduler(t, SchedulerConfig{Workers: 1})
	cells := orderCells(1, 3)
	cells[1].Params = map[string]float64{"fail": 1}
	job, err := s.SubmitCells(cells, 0)
	if err != nil {
		t.Fatal(err)
	}
	recv(t, started, "cell 0 to start")

	// Not ready and not terminal: only the caller's context can end the wait.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := job.WaitCell(ctx, 0); !errors.Is(err, context.Canceled) || errors.Is(err, ErrJobNotDone) {
		t.Errorf("WaitCell on a cancelled ctx = %v, want ctx's error", err)
	}

	release <- struct{}{} // cell 0 completes
	recv(t, started, "cell 1 to start")
	release <- struct{}{} // cell 1 fails the job; cell 2 never runs
	recv(t, job.Terminal(), "the job to fail")
	if st := job.Status(); st.State != JobFailed || st.CellsDone != 1 {
		t.Fatalf("status = %+v, want failed with one cell done", st)
	}
	if !errors.Is(job.Err(), errOrderCell) {
		t.Errorf("job error = %v, want the cell's error", job.Err())
	}

	bg := context.Background()
	res, err := job.WaitCell(bg, 0)
	if err != nil || res == nil || res.Index != 0 || res.Times[0] != 10 {
		t.Errorf("WaitCell(0) after the failure = %+v, %v; want cell 0's result", res, err)
	}
	for _, i := range []int{1, 2} {
		if _, err := job.WaitCell(bg, i); !errors.Is(err, ErrJobNotDone) {
			t.Errorf("WaitCell(%d) = %v, want ErrJobNotDone", i, err)
		}
	}
	if _, err := job.WaitCell(bg, 3); err == nil || errors.Is(err, ErrJobNotDone) {
		t.Errorf("WaitCell(3) = %v, want an out-of-range error", err)
	}
}

// TestJobCursorContention runs eight Results readers at once — mixed
// resume offsets, two of them cancelled mid-stream — over one job on four
// workers. Cells finish in whatever order the workers take their release
// tokens; every reader must still see a gap-free canonical-order suffix,
// and a cancelled reader must return while the job is still held open.
func TestJobCursorContention(t *testing.T) {
	const n = 24
	started, release := armOrderKind()
	s := newTestScheduler(t, SchedulerConfig{Workers: 4})
	job, err := s.SubmitCells(orderCells(1, n), 0)
	if err != nil {
		t.Fatal(err)
	}
	go func() { // cells report their starts; this test does not order them
		for range n {
			select {
			case <-started:
			case <-t.Context().Done():
				return
			}
		}
	}()

	type reading struct {
		got []int
		err error
	}
	read := func(ctx context.Context, after int) <-chan reading {
		out := make(chan reading, 1)
		go func() {
			var r reading
			for res, err := range job.Results(ctx, after) {
				if err != nil {
					r.err = err
					break
				}
				r.got = append(r.got, res.Index)
			}
			out <- r
		}()
		return out
	}
	gapFree := func(name string, after int, got []int) {
		t.Helper()
		for k, idx := range got {
			if idx != after+1+k {
				t.Errorf("%s (after %d) read %v: not a gap-free canonical-order run", name, after, got)
				return
			}
		}
	}

	cancelCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := []<-chan reading{read(cancelCtx, -1), read(cancelCtx, -1)}
	offsets := []int{-1, 0, 5, 11, 17, n - 2}
	var full []<-chan reading
	for _, after := range offsets {
		full = append(full, read(context.Background(), after))
	}

	// All but one token: some cell stays parked, so the job cannot finish
	// and a reader from the start cannot reach the end.
	token := func() {
		t.Helper()
		select {
		case release <- struct{}{}:
		case <-time.After(30 * time.Second):
			t.Fatal("no running cell took the release token")
		}
	}
	for range n - 1 {
		token()
	}
	cancel()
	for _, ch := range cancelled {
		r := recv(t, ch, "a cancelled reader to return while the job is held")
		if !errors.Is(r.err, context.Canceled) || errors.Is(r.err, ErrJobNotDone) {
			t.Errorf("cancelled reader ended with %v, want its context's error", r.err)
		}
		if len(r.got) >= n {
			t.Errorf("cancelled reader read all %d cells of a job that is still running", len(r.got))
		}
		gapFree("cancelled reader", -1, r.got)
	}
	if st := job.Status(); st.State != JobRunning {
		t.Fatalf("job state with one cell parked = %s, want running", st.State)
	}

	token()
	recv(t, job.Terminal(), "the job to finish")
	for i, ch := range full {
		r := recv(t, ch, "a reader to drain the finished job")
		if r.err != nil || len(r.got) != n-1-offsets[i] {
			t.Errorf("reader after %d read %d cells (err %v), want %d and nil", offsets[i], len(r.got), r.err, n-1-offsets[i])
		}
		gapFree("reader", offsets[i], r.got)
	}
}
