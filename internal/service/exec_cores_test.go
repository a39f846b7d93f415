package service

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/obs"
)

// The cores-probe kind records the trial workers the executor gave each
// cell (by its TrialSeed tag) and the workers summed over the cells
// inside it at once. A gated probe sends a token on entry and then parks
// until the test sends one back (or closes the gate, which releases
// every cell) or the cell's ctx ends. A cell with Params["fail"] set
// fails. Registered once (the kind table is process-global); each test
// installs a fresh probe.
type coresProbe struct {
	entered chan struct{} // nil when ungated
	gate    chan struct{}

	mu           sync.Mutex
	workers      map[uint64]int
	cells        int // cells inside the kind
	inFlight     int // their trial workers, summed
	peakBorrowed int // the most inFlight − cells has been
}

var (
	coresProbeNow atomic.Pointer[coresProbe]
	coresKindOnce sync.Once
	errCoresCell  = errors.New("cores-probe: cell told to fail")
)

// armCoresProbe installs a fresh probe and runs the test at GOMAXPROCS 4.
func armCoresProbe(t *testing.T, gated bool) *coresProbe {
	t.Helper()
	coresKindOnce.Do(func() { MustRegisterKind(CellKind{Name: "cores-probe", Run: runCoresProbe}) })
	p := &coresProbe{workers: map[uint64]int{}}
	if gated {
		p.entered, p.gate = make(chan struct{}, 64), make(chan struct{})
	}
	coresProbeNow.Store(p)
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	return p
}

func runCoresProbe(ctx context.Context, cell CellSpec, _ *graph.Graph, workers int) (*KindResult, error) {
	p := coresProbeNow.Load()
	p.mu.Lock()
	p.workers[cell.TrialSeed] = workers
	p.cells++
	p.inFlight += workers
	p.peakBorrowed = max(p.peakBorrowed, p.inFlight-p.cells)
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.cells--
		p.inFlight -= workers
		p.mu.Unlock()
	}()
	if p.gate != nil {
		p.entered <- struct{}{}
		select {
		case <-p.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if cell.Params["fail"] != 0 {
		return nil, errCoresCell
	}
	return &KindResult{Times: []float64{float64(cell.TrialSeed)}}, nil
}

func (p *coresProbe) workersOf(tag uint64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.workers[tag]
}

func probeCell(tag uint64, trials int) CellSpec {
	return CellSpec{Kind: "cores-probe", Trials: trials, TrialSeed: tag}
}

// goRun runs one lone cell in the background.
func goRun(ctx context.Context, e *Executor, cell CellSpec) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, _, err := e.Run(ctx, 0, cell)
		done <- err
	}()
	return done
}

func wantClaimed(t *testing.T, e *Executor, want int64, when string) {
	t.Helper()
	if got := e.claimed.Load(); got != want {
		t.Errorf("claimed cores %s = %d, want %d", when, got, want)
	}
}

// debugExecutor is a zero-knob executor whose `cell computed` lines land
// in the returned builder (slog's handler serializes the writes).
func debugExecutor(t *testing.T) (*Executor, *strings.Builder) {
	t.Helper()
	var logs strings.Builder
	log, err := obs.NewLogger(&logs, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	return &Executor{Obs: NewObservability(nil, log)}, &logs
}

// loggedTrialWorkers reads trial_workers off every `cell computed` line,
// by cell key.
func loggedTrialWorkers(t *testing.T, logs string) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var rec struct {
			Msg          string `json:"msg"`
			Key          string `json:"key"`
			TrialWorkers *int   `json:"trial_workers"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec.Msg != "cell computed" {
			continue
		}
		if rec.TrialWorkers == nil {
			t.Fatalf("computed-cell line without trial_workers: %s", line)
		}
		out[rec.Key] = *rec.TrialWorkers
	}
	return out
}

// TestExecCoresLoneRun: a lone Run on a zero Executor runs min(Trials,
// GOMAXPROCS) trial workers, holds exactly that many cores while its
// trials run and none once they end, and says so on its debug line.
func TestExecCoresLoneRun(t *testing.T) {
	p := armCoresProbe(t, true)
	e, logs := debugExecutor(t)
	for _, tc := range []struct{ trials, want int }{{1, 1}, {3, 3}, {9, 4}} {
		cell := probeCell(uint64(tc.trials), tc.trials)
		done := goRun(context.Background(), e, cell)
		recv(t, p.entered, "the lone cell's trials")
		wantClaimed(t, e, int64(tc.want), "during the trials")
		p.gate <- struct{}{}
		if err := recv(t, done, "the lone Run"); err != nil {
			t.Fatal(err)
		}
		if got := p.workersOf(cell.TrialSeed); got != tc.want {
			t.Errorf("lone Run of %d trials got %d trial workers, want %d", tc.trials, got, tc.want)
		}
		if got := loggedTrialWorkers(t, logs.String())[cell.Key()]; got != tc.want {
			t.Errorf("lone Run of %d trials logged trial_workers=%d, want %d", tc.trials, got, tc.want)
		}
		wantClaimed(t, e, 0, "after the Run")
	}
}

// TestExecCoresBatch: inside a RunCells batch a cell borrows only what
// the batch's workers leave idle — eight cells on four cell workers run
// on one core each, a one-cell batch on all four — and the batch's
// claims are gone when RunCells returns.
func TestExecCoresBatch(t *testing.T) {
	p := armCoresProbe(t, true)
	e, logs := debugExecutor(t)
	e.CellWorkers = 4
	cells := make([]CellSpec, 8)
	for i := range cells {
		cells[i] = probeCell(uint64(i), 9)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.RunCells(context.Background(), cells)
		done <- err
	}()
	// Hand out one release per later cell, and only once the four in
	// flight have entered: no worker can run out of cells (and give its
	// core back) before the last cell has taken its workers.
	for range 4 {
		recv(t, p.entered, "a first-wave cell")
	}
	wantClaimed(t, e, 4, "with four batch cells in flight")
	for range len(cells) - 4 {
		p.gate <- struct{}{}
		recv(t, p.entered, "the next cell")
	}
	close(p.gate)
	if err := recv(t, done, "the batch"); err != nil {
		t.Fatal(err)
	}
	logged := loggedTrialWorkers(t, logs.String())
	for _, c := range cells {
		if got := p.workersOf(c.TrialSeed); got != 1 {
			t.Errorf("cell %d of a full batch got %d trial workers, want 1", c.TrialSeed, got)
		}
		if got := logged[c.Key()]; got != 1 {
			t.Errorf("cell %d of a full batch logged trial_workers=%d, want 1", c.TrialSeed, got)
		}
	}
	wantClaimed(t, e, 0, "after a full batch")

	e.CellWorkers = 0
	lone := probeCell(100, 9)
	if _, err := e.RunCells(context.Background(), []CellSpec{lone}); err != nil {
		t.Fatal(err)
	}
	if got := p.workersOf(lone.TrialSeed); got != 4 {
		t.Errorf("a one-cell batch got %d trial workers, want 4", got)
	}
	wantClaimed(t, e, 0, "after a one-cell batch")
}

// TestExecCoresConcurrentLoneRuns: eight lone Runs in flight at once on
// four cores each hold their own core, and what they borrow on top never
// adds up to more than the three cores the first of them found idle. The
// counter is exactly what the cells hold.
func TestExecCoresConcurrentLoneRuns(t *testing.T) {
	p := armCoresProbe(t, true)
	e := &Executor{}
	dones := make([]<-chan error, 8)
	for i := range dones {
		dones[i] = goRun(context.Background(), e, probeCell(uint64(i), 9))
	}
	for range dones {
		recv(t, p.entered, "a concurrent lone cell")
	}
	p.mu.Lock()
	inFlight, borrowed := p.inFlight, p.peakBorrowed
	p.mu.Unlock()
	wantClaimed(t, e, int64(inFlight), "with eight lone cells in flight")
	if borrowed > 3 {
		t.Errorf("eight lone cells borrowed %d cores beyond their own, want at most GOMAXPROCS−1 = 3", borrowed)
	}
	close(p.gate)
	for _, done := range dones {
		if err := recv(t, done, "a concurrent lone Run"); err != nil {
			t.Fatal(err)
		}
	}
	wantClaimed(t, e, 0, "after eight lone Runs")
}

// TestExecCoresExplicitWorkers: an explicit TrialWorkers is used as
// given and claims nothing.
func TestExecCoresExplicitWorkers(t *testing.T) {
	p := armCoresProbe(t, true)
	e := &Executor{TrialWorkers: 2}
	cell := probeCell(7, 9)
	done := goRun(context.Background(), e, cell)
	recv(t, p.entered, "the explicit cell's trials")
	wantClaimed(t, e, 0, "during an explicit-workers cell")
	p.gate <- struct{}{}
	if err := recv(t, done, "the explicit Run"); err != nil {
		t.Fatal(err)
	}
	if got := p.workersOf(cell.TrialSeed); got != 2 {
		t.Errorf("TrialWorkers 2 gave %d trial workers", got)
	}
}

// TestExecCoresReleasedOnEveryPath: the claim counter is back at 0 after
// a kind error, a cancellation mid-trials, a result-cache hit (which
// claims nothing) and a batch aborted by a failing cell.
func TestExecCoresReleasedOnEveryPath(t *testing.T) {
	armCoresProbe(t, false)
	failing := probeCell(1, 9)
	failing.Params = map[string]float64{"fail": 1}

	e := &Executor{Results: NewResultCache(4)}
	if _, _, err := e.Run(context.Background(), 0, failing); !errors.Is(err, errCoresCell) {
		t.Fatalf("failing cell: err = %v", err)
	}
	wantClaimed(t, e, 0, "after a kind error")

	ok := probeCell(2, 9)
	for _, wantHit := range []bool{false, true} {
		if _, hit, err := e.Run(context.Background(), 0, ok); err != nil || hit != wantHit {
			t.Fatalf("Run = hit %v, %v; want hit %v", hit, err, wantHit)
		}
		wantClaimed(t, e, 0, "after a computed cell and after a result-cache hit")
	}

	cells := make([]CellSpec, 8)
	for i := range cells {
		cells[i] = probeCell(uint64(10+i), 9)
	}
	cells[2] = failing
	batch := &Executor{CellWorkers: 4}
	if _, err := batch.RunCells(context.Background(), cells); !errors.Is(err, errCoresCell) {
		t.Fatalf("batch with a failing cell: err = %v", err)
	}
	wantClaimed(t, batch, 0, "after a batch aborted by a failing cell")

	p := armCoresProbe(t, true)
	ctx, cancel := context.WithCancel(context.Background())
	done := goRun(ctx, e, probeCell(3, 9))
	recv(t, p.entered, "the cell to be cancelled")
	wantClaimed(t, e, 4, "before the cancel")
	cancel()
	if err := recv(t, done, "the cancelled Run"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run: err = %v", err)
	}
	wantClaimed(t, e, 0, "after a cancellation")
}
