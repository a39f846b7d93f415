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

// CoverageRounds must return what the sorted order statistics say, for
// every fraction, on complete, partial (disconnected, amnesiac) and
// empty results.
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

// CoverageTimes of a result without a stepper's informing order must
// return what the sorted order statistics say on vectors with ties, with
// never-informed (-1) entries, in sorted, reversed and rising-then-falling
// arrangements, and for fractions in any order, leaving InformedAt as it
// found it.
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

// countingCoverageRounds and selectionCoverageTimes are the coverage
// paths results without an informing order took before every result
// read one (a count of nodes per round, then a running total; Hoare
// selection over one shared copy of the times), kept verbatim as the
// oracle of CoverageRounds and CoverageTimes.
func countingCoverageRounds(r *SyncResult, fracs []float64) []int32 {
	n := len(r.InformedAt)
	informedBy := make([]int, r.Rounds+1) // nodes informed in round t, then by round t
	for _, t := range r.InformedAt {
		if t >= 0 {
			informedBy[t]++
		}
	}
	for t := 1; t < len(informedBy); t++ {
		informedBy[t] += informedBy[t-1]
	}
	out := make([]int32, len(fracs))
	for i, frac := range fracs {
		if frac <= 0 {
			continue
		}
		need := max(int(math.Ceil(frac*float64(n))), 1)
		t := sort.SearchInts(informedBy, need)
		if t == len(informedBy) {
			t = -1
		}
		out[i] = int32(t)
	}
	return out
}

func selectionCoverageTimes(r *AsyncResult, fracs []float64) []float64 {
	times := make([]float64, 0, len(r.InformedAt))
	for _, t := range r.InformedAt {
		if t >= 0 {
			times = append(times, t)
		}
	}
	informed := len(times)
	out := make([]float64, len(fracs))
	// times[:lo] holds the lo smallest times: a rank at or past lo is
	// looked for in the rest only, one before it in that prefix only.
	lo := 0
	for i, frac := range fracs {
		k := max(int(math.Ceil(frac*float64(len(r.InformedAt)))), 1) - 1
		switch {
		case frac <= 0:
		case k >= informed:
			out[i] = -1
		case k >= lo:
			out[i] = selectNth(times[lo:], k-lo)
			lo = k
		default:
			out[i] = selectNth(times[:lo], k)
		}
	}
	return out
}

// selectNth returns the k-th smallest element of xs (0-based), permuting
// xs so that it sits at xs[k] with nothing larger before it and nothing
// smaller after it: Hoare's FIND, expected linear time. The pivot
// position comes from a fixed multiplicative sequence, not from the
// data, so no arrangement of informing times (sorted along a path,
// rising then falling around a cycle) is a bad case; the value
// returned does not depend on the pivots.
func selectNth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for seq := uint64(1); lo < hi; {
		seq *= 0x9e3779b97f4a7c15
		pivot := xs[lo+int((seq>>33)%uint64(hi-lo+1))]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// checkInformingOrder fails unless order is exactly the informed nodes
// {v : at[v] >= 0}, each once, with at non-decreasing along it: what
// reading every milestone and curve point off it rests on.
func checkInformingOrder[T int32 | float64](t *testing.T, name string, at []T, order []graph.NodeID) {
	t.Helper()
	if order == nil {
		t.Fatalf("%s: the stepper's result has no informing order", name)
	}
	seen := make([]bool, len(at))
	for i, v := range order {
		switch {
		case at[v] < 0 || seen[v]:
			t.Fatalf("%s: order[%d] = %d, informed at %v, seen before %v", name, i, v, at[v], seen[v])
		case i > 0 && at[v] < at[order[i-1]]:
			t.Fatalf("%s: order[%d] = %d informed at %v, before order[%d] at %v", name, i, v, at[v], i-1, at[order[i-1]])
		}
		seen[v] = true
	}
	for v, t0 := range at {
		if t0 >= 0 && !seen[v] {
			t.Fatalf("%s: node %d informed at %v is missing from the order", name, v, t0)
		}
	}
}

// TestCoverageOrderMatchesSelection: CoverageTimes and CoverageRounds
// read every answer off one informing order, the stepper's own or a
// sort of the informed nodes. Both agree bit for bit with the selection
// and counting paths kept as the oracle, on a stepper's result and on
// its twin without the order, for every row of the Step-by-Step pin
// under both timings (a row's synchronous twin drops its view and
// bounds a budget row by rounds): ties at time 0 and within a round,
// amnesiac rejoins, stranded runs, failed epochs and budget cuts, for
// fractions in any order; and on the literal engines' results. Each
// stepper's order is exactly its informed set, in informing time.
func TestCoverageOrderMatchesSelection(t *testing.T) {
	fracs := []float64{0.5, -1, 1, 0.25, 0.9, 0, 0.99, 1e-9, 0.75, 0.5, 0.01, 1.5, 1.0 / 64}
	checkAsync := func(name string, r *AsyncResult) {
		t.Helper()
		plain := *r
		plain.order = nil
		want := selectionCoverageTimes(r, fracs)
		for _, res := range []*AsyncResult{r, &plain} {
			got := res.CoverageTimes(fracs)
			for i := range fracs {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s (order %v) frac %v: got %v, selection %v", name, res.order != nil, fracs[i], got[i], want[i])
				}
			}
		}
	}
	checkSync := func(name string, r *SyncResult) {
		t.Helper()
		plain := *r
		plain.order = nil
		want := countingCoverageRounds(r, fracs)
		for _, res := range []*SyncResult{r, &plain} {
			if got := res.CoverageRounds(fracs); !slices.Equal(got, want) {
				t.Fatalf("%s (order %v): got %v, counting %v (fractions %v)", name, res.order != nil, got, want, fracs)
			}
		}
	}
	for _, row := range stepperRows(t) {
		t.Run(row.name, func(t *testing.T) {
			async, sync := stepperTwins(t, row)
			for seed := uint64(0); seed < 4; seed++ {
				name := fmt.Sprintf("async seed %d", seed)
				out, _ := async.Run(xrand.New(seed))
				checkInformingOrder(t, name, out.Async.InformedAt, out.Async.order)
				checkAsync(name, out.Async)
				name = fmt.Sprintf("sync seed %d", seed)
				out, _ = sync.Run(xrand.New(seed))
				checkInformingOrder(t, name, out.Sync.InformedAt, out.Sync.order)
				checkSync(name, out.Sync)
			}
		})
	}
	for _, row := range referenceRows(t) {
		if row.sync != nil {
			checkSync(row.name, row.sync)
		} else {
			checkAsync(row.name, row.async)
		}
	}
}
