package core

import (
	"errors"
	"sort"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// The batch helpers must agree exactly with the single-fraction queries
// (they share one sorted copy instead of sorting per query).
func TestCoverageTimesMatchesSingleQueries(t *testing.T) {
	g := mustGraph(graph.Hypercube(6))
	res, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull}, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	fracs := []float64{0, 0.25, 0.5, 0.9, 0.99, 1.0}
	batch := res.CoverageTimes(fracs)
	if len(batch) != len(fracs) {
		t.Fatalf("batch length %d, want %d", len(batch), len(fracs))
	}
	for i, f := range fracs {
		if single := res.CoverageTime(f); single != batch[i] {
			t.Errorf("frac %v: batch %v != single %v", f, batch[i], single)
		}
	}
	for i := 1; i < len(batch); i++ {
		if batch[i] < batch[i-1] {
			t.Errorf("coverage times not monotone: %v", batch)
		}
	}
}

func TestCoverageRoundsMatchesSingleQueries(t *testing.T) {
	g := mustGraph(graph.Hypercube(6))
	res, err := RunSync(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	fracs := []float64{0, 0.25, 0.5, 0.9, 0.99, 1.0}
	batch := res.CoverageRounds(fracs)
	for i, f := range fracs {
		if single := res.CoverageRound(f); single != batch[i] {
			t.Errorf("frac %v: batch %v != single %v", f, batch[i], single)
		}
	}
}

// Unreachable coverage reports -1 in batch queries too.
func TestCoverageBatchUnreached(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	sres, err := RunSync(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rounds := sres.CoverageRounds([]float64{0.5, 0.9})
	if rounds[0] == -1 || rounds[1] != -1 {
		t.Errorf("rounds = %v, want [reached, -1]", rounds)
	}
	ares, err := RunAsync(g, 0, AsyncConfig{Protocol: PushPull}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	times := ares.CoverageTimes([]float64{0.5, 0.9})
	if times[0] < 0 || times[1] != -1 {
		t.Errorf("times = %v, want [reached, -1]", times)
	}
}

// CoverageRounds counts instead of sorting; it must return what the
// sorted order statistics say, for every fraction, on complete, partial
// (disconnected, amnesiac) and empty results.
func TestCoverageRoundsMatchesSortedOrder(t *testing.T) {
	fracs := []float64{-1, 0, 1e-9, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	check := func(name string, res *SyncResult) {
		t.Helper()
		var sorted []float64
		for _, at := range res.InformedAt {
			if at >= 0 {
				sorted = append(sorted, float64(at))
			}
		}
		sort.Float64s(sorted)
		got := res.CoverageRounds(fracs)
		for i, f := range fracs {
			if want := int32(coverageFromSorted(sorted, len(res.InformedAt), f)); got[i] != want {
				t.Errorf("%s frac %v: got %d, want %d", name, f, got[i], want)
			}
		}
	}
	for seed := uint64(0); seed < 5; seed++ {
		for _, sc := range syncStreamScenarios(t) {
			trial, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			out, err := trial.Run(xrand.New(seed))
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatal(err)
			}
			check(sc.name, out.Sync)
		}
	}
	check("empty", &SyncResult{})
}
