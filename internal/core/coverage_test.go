package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// The batch helpers must agree exactly with the single-fraction queries
// (one pass over the informing times serves every fraction).
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

// coverageFromSorted is the definition both batch helpers are checked
// against: the ceil(frac*n)-th smallest of the sorted informing times,
// 0 for a non-positive fraction, -1 if fewer nodes were ever informed.
func coverageFromSorted(sorted []float64, n int, frac float64) float64 {
	if frac <= 0 {
		return 0
	}
	need := max(int(math.Ceil(frac*float64(n))), 1)
	if len(sorted) < need {
		return -1
	}
	return sorted[need-1]
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

// TestAsyncCoverageGolden pins CoverageTimes bit for bit on every async
// scenario shape of async_stream.golden — connected, crash-stranded
// (unreached fractions are -1), churn with amnesiac rejoins (forgotten
// nodes are -1 entries in InformedAt), budget hits, several sources
// (ties at time 0) — and on a G(n,p) large enough that the order
// statistics are not all neighbours in the array. The file was written
// by the sort-based implementation.
func TestAsyncCoverageGolden(t *testing.T) {
	fracs := []float64{0, 0.5, 0.9, 0.99, 1.0}
	scenarios := streamScenarios(t)
	gnp := mustGraph(graph.GNPConnected(3000, 0.01, xrand.New(5), 10))
	for _, p := range []Protocol{Push, PushPull} {
		cfg := AsyncConfig{Protocol: p}
		scenarios = append(scenarios, streamScenario{
			name:  fmt.Sprintf("gnp3000/%v", p),
			build: func() (*Trial, error) { return NewTrial(graph.NewStatic(gnp), 0, cfg, 0, false) },
		})
	}
	// streamGraph is disconnected (25 of 31 reachable), so q90 and up
	// are unreached there; on the cube a crashed node costs only q100.
	cube := mustGraph(graph.Hypercube(7))
	for _, row := range []struct {
		name string
		cfg  AsyncConfig
	}{
		{"cube/plain", AsyncConfig{Protocol: PushPull}},
		{"cube/crash", AsyncConfig{Protocol: PushPull, View: PerNodeClocks, Crashes: []Crash{{Node: 77, Time: 0}}}},
		{"cube/churn", AsyncConfig{Protocol: PushPull, Churn: []ChurnEvent{
			{Node: 1, Time: 1, Op: ChurnLeave}, {Node: 1, Time: 3, Op: ChurnJoin, DropState: true},
			{Node: 64, Time: 0.5, Op: ChurnLeave}, {Node: 64, Time: 2, Op: ChurnJoin},
		}}},
	} {
		scenarios = append(scenarios, streamScenario{
			name:  row.name,
			build: func() (*Trial, error) { return NewTrial(graph.NewStatic(cube), 0, row.cfg, 0, false) },
		})
	}
	var buf bytes.Buffer
	for i, sc := range scenarios {
		trial, err := sc.build()
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		out, err := trial.Run(xrand.New(2000 + uint64(i)))
		if err != nil && !errors.Is(err, ErrBudget) {
			t.Fatalf("%s: %v", sc.name, err)
		}
		fmt.Fprintf(&buf, "%s informed=%d/%d", sc.name, out.Async.NumInformed, len(out.Async.InformedAt))
		for j, c := range out.Async.CoverageTimes(fracs) {
			fmt.Fprintf(&buf, " q%v=%016x", fracs[j]*100, math.Float64bits(c))
		}
		buf.WriteByte('\n')
	}
	checkStreamGolden(t, "coverage.golden", buf.Bytes())
}

// CoverageTimes selects instead of sorting; it must return what the
// sorted order statistics say on vectors with ties, with never-informed
// (-1) entries, in the arrangements a deterministic pivot rule would
// fear (sorted, reversed, rising then falling), and for fractions in any
// order — a rank below an earlier one is looked for in the prefix the
// earlier selection left.
func TestCoverageTimesMatchesSortedOrder(t *testing.T) {
	rng := xrand.New(31)
	fracs := []float64{0.5, -1, 1, 0.25, 0.9, 0, 0.99, 1e-9, 0.75, 0.5, 0.01}
	check := func(name string, informedAt []float64) {
		t.Helper()
		var sorted []float64
		for _, at := range informedAt {
			if at >= 0 {
				sorted = append(sorted, at)
			}
		}
		sort.Float64s(sorted)
		res := &AsyncResult{InformedAt: informedAt}
		rng.Shuffle(len(fracs), func(i, j int) { fracs[i], fracs[j] = fracs[j], fracs[i] })
		got := res.CoverageTimes(fracs)
		for i, f := range fracs {
			if want := coverageFromSorted(sorted, len(informedAt), f); got[i] != want {
				t.Errorf("%s frac %v (query %d of %v): got %v, want %v", name, f, i, fracs, got[i], want)
			}
		}
	}
	for _, n := range []int{1, 2, 3, 10, 100, 1000, 4097} {
		random, ties, holes := make([]float64, n), make([]float64, n), make([]float64, n)
		rising, falling, pipe := make([]float64, n), make([]float64, n), make([]float64, n)
		for v := range random {
			random[v] = rng.Float64() * 10
			ties[v] = float64(rng.Intn(4))
			holes[v] = random[v]
			if rng.Bernoulli(0.3) {
				holes[v] = -1
			}
			rising[v], falling[v] = float64(v), float64(n-v)
			pipe[v] = float64(min(v, n-v))
		}
		for name, informedAt := range map[string][]float64{
			"random": random, "ties": ties, "holes": holes, "rising": rising, "falling": falling, "pipe": pipe,
			"none": slices.Repeat([]float64{-1}, n), "equal": slices.Repeat([]float64{2.5}, n),
		} {
			before := slices.Clone(informedAt)
			check(fmt.Sprintf("%s/n=%d", name, n), informedAt)
			if !slices.Equal(informedAt, before) {
				t.Fatalf("%s/n=%d: CoverageTimes modified InformedAt", name, n)
			}
		}
	}
	check("empty", nil)
}

// TestCoverageOrderMatchesSelection: a stepper's result reads coverage
// off the informing order it keeps, and the same result without that
// order takes the path of results built elsewhere — selection over the
// informing times, or counting nodes per round. The two agree bit for
// bit on every row of the Step-by-Step pin, under both timings (a row's
// synchronous twin drops its view and bounds a budget row by rounds):
// ties at time 0 and within a round, amnesiac rejoins, stranded runs,
// failed epochs and budget cuts, for fractions in any order.
func TestCoverageOrderMatchesSelection(t *testing.T) {
	fracs := []float64{0.5, -1, 1, 0.25, 0.9, 0, 0.99, 1e-9, 0.75, 0.5, 0.01, 1.5, 1.0 / 64}
	for _, row := range stepperRows(t) {
		t.Run(row.name, func(t *testing.T) {
			async, err := NewTrial(row.topo(), 0, row.cfg, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			cfg := SyncConfig{Protocol: row.cfg.Protocol, TransmitProb: row.cfg.TransmitProb,
				Crashes: row.cfg.Crashes, Churn: row.cfg.Churn}
			if row.cfg.MaxSteps > 0 {
				cfg.MaxRounds = 3
			}
			sync, err := NewTrial(row.topo(), 0, cfg, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed < 4; seed++ {
				out, _ := async.Run(xrand.New(seed))
				plain := *out.Async
				plain.order = nil
				if out.Async.order == nil {
					t.Fatal("the stepper's result has no informing order")
				}
				got, want := out.Async.CoverageTimes(fracs), plain.CoverageTimes(fracs)
				for i := range fracs {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("async seed %d frac %v: order reads %v, selection %v", seed, fracs[i], got[i], want[i])
					}
				}
				out, _ = sync.Run(xrand.New(seed))
				splain := *out.Sync
				splain.order = nil
				if out.Sync.order == nil {
					t.Fatal("the stepper's result has no informing order")
				}
				if got, want := out.Sync.CoverageRounds(fracs), splain.CoverageRounds(fracs); !slices.Equal(got, want) {
					t.Fatalf("sync seed %d: order reads %v, counting %v (fractions %v)", seed, got, want, fracs)
				}
			}
		})
	}
}
