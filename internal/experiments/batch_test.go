package experiments

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"rumor/internal/service"
)

// batchCache is one result-caching executor the batch tests share, so
// only the first of them computes the quick suite's cells.
var batchCache = sync.OnceValue(func() *service.Executor { return NewLocalRunner(0, true) })

// countingRunner records each batch it is handed and streams it on the
// shared executor.
type countingRunner struct{ batches []int }

func (r *countingRunner) StreamCells(ctx context.Context, cells []service.CellSpec, fn func(*service.CellResult) error) ([]*service.CellResult, error) {
	r.batches = append(r.batches, len(cells))
	return batchCache().StreamCells(ctx, cells, fn)
}

// reorderingRunner computes the whole batch and then hands fn its
// results in the order order gives.
type reorderingRunner struct{ order func(n int) []int }

func (r reorderingRunner) StreamCells(ctx context.Context, cells []service.CellSpec, fn func(*service.CellResult) error) ([]*service.CellResult, error) {
	results, err := batchCache().RunCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	for _, i := range r.order(len(results)) {
		if err := fn(results[i]); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// breakingRunner runs batches on one cell worker over the shared caches,
// with every cell whose key is bad swapped for one that cannot run.
type breakingRunner struct{ bad string }

func (r breakingRunner) StreamCells(ctx context.Context, cells []service.CellSpec, fn func(*service.CellResult) error) ([]*service.CellResult, error) {
	cells = slices.Clone(cells)
	for i, c := range cells {
		if c.Key() == r.bad {
			cells[i].Family = "no-such-family"
		}
	}
	shared := batchCache()
	serial := &service.Executor{CellWorkers: 1, Results: shared.Results, Graphs: shared.Graphs}
	return serial.StreamCells(ctx, cells, fn)
}

// TestSuiteBatchIsOneRunnerCall: the quick suite reaches its runner as
// one batch of all 170 cells and prints the golden suite.
func TestSuiteBatchIsOneRunnerCall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite")
	}
	r := &countingRunner{}
	var out bytes.Buffer
	if _, err := RunAll(Config{Quick: true, Out: &out, Runner: r}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.batches, []int{170}) {
		t.Errorf("runner calls by batch size = %v, want one call of 170 cells", r.batches)
	}
	assertGolden(t, filepath.Join("testdata", "quick_suite.golden"), out.String())
}

// TestSuiteBatchAnyCompletionOrder: results that complete in index,
// reverse or shuffled order are reduced in suite order, byte for byte
// the golden.
func TestSuiteBatchAnyCompletionOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite")
	}
	orders := map[string]func(n int) []int{
		"index": func(n int) []int {
			o := make([]int, n)
			for i := range o {
				o[i] = i
			}
			return o
		},
		"reverse": func(n int) []int {
			o := make([]int, n)
			for i := range o {
				o[i] = n - 1 - i
			}
			return o
		},
		"shuffled": func(n int) []int { return rand.New(rand.NewSource(29)).Perm(n) },
	}
	for name, order := range orders {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if _, err := RunAll(Config{Quick: true, Out: &out, Runner: reorderingRunner{order}}); err != nil {
				t.Fatal(err)
			}
			assertGolden(t, filepath.Join("testdata", "quick_suite.golden"), out.String())
		})
	}
}

// TestSuiteBatchErrorNamesExperiment: a runner error on one E5 cell
// reads `experiments: E5: service: cell …` with one prefix, from RunAll
// and from Run, and RunAll still returns E1–E4's outcomes.
func TestSuiteBatchErrorNamesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite up to E5")
	}
	cfg := Config{Quick: true}
	e5, err := ByID("E5")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Runner = breakingRunner{bad: e5.Cells(cfg)[0].Key()}
	outcomes, err := RunAll(cfg)
	if err == nil {
		t.Fatal("RunAll succeeded with a broken E5 cell")
	}
	checkErr := func(from string, err error) {
		t.Helper()
		msg := err.Error()
		if !strings.HasPrefix(msg, "experiments: E5: service: cell ") || strings.Count(msg, "experiments:") != 1 {
			t.Errorf("%s error = %q, want one `experiments: E5: service: cell …` prefix", from, msg)
		}
	}
	checkErr("RunAll", err)
	var ids []string
	for _, o := range outcomes {
		ids = append(ids, o.ID)
	}
	if !slices.Equal(ids, []string{"E1", "E2", "E3", "E4"}) {
		t.Errorf("RunAll returned outcomes %v, want E1–E4", ids)
	}
	if _, err := e5.Run(cfg); err == nil {
		t.Error("Run succeeded with a broken E5 cell")
	} else {
		checkErr("Run", err)
	}
}
