package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// curveFromTimes32Oracle, curveFromTimesOracle and buildCurveOracle are
// the Curve methods' first implementation, kept verbatim as the oracle:
// copy the informed nodes' times, sort them, and emit one point per
// distinct time.
func curveFromTimes32Oracle(at []int32, n int) *Curve {
	times := make([]float64, 0, len(at))
	for _, t := range at {
		if t >= 0 {
			times = append(times, float64(t))
		}
	}
	return buildCurveOracle(times, n)
}

func curveFromTimesOracle(at []float64, n int) *Curve {
	times := make([]float64, 0, len(at))
	for _, t := range at {
		if t >= 0 {
			times = append(times, t)
		}
	}
	return buildCurveOracle(times, n)
}

func buildCurveOracle(times []float64, n int) *Curve {
	if len(times) == 0 || n == 0 {
		return &Curve{}
	}
	sort.Float64s(times)
	c := &Curve{}
	count := 0
	for i := 0; i < len(times); {
		j := i
		for j < len(times) && times[j] == times[i] {
			j++
		}
		count += j - i
		c.Times = append(c.Times, times[i])
		c.Fractions = append(c.Fractions, float64(count)/float64(n))
		i = j
	}
	return c
}

// stepperTwins builds row's asynchronous trial and its synchronous twin:
// the same topology, protocol, channel and schedule without the view,
// and a budget row bounded by rounds instead of ticks.
func stepperTwins(t *testing.T, row stepperRow) (async, sync *Trial) {
	t.Helper()
	async, err := NewTrial(row.topo(), 0, row.cfg, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SyncConfig{Protocol: row.cfg.Protocol, TransmitProb: row.cfg.TransmitProb,
		Crashes: row.cfg.Crashes, Churn: row.cfg.Churn}
	if row.cfg.MaxSteps > 0 {
		cfg.MaxRounds = 3
	}
	sync, err = NewTrial(row.topo(), 0, cfg, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return async, sync
}

// referenceRow is one result of a literal engine.
type referenceRow struct {
	name  string
	sync  *SyncResult
	async *AsyncResult
}

// referenceRows runs the literal engines over four seeds each: a plain
// and a crash row for the synchronous one (it does not model churn), a
// plain and an amnesiac-churn row for the asynchronous one. The crash
// strands part of a path, so some nodes stay at -1.
func referenceRows(t *testing.T) []referenceRow {
	t.Helper()
	cube, path := mustGraph(graph.Hypercube(5)), mustGraph(graph.Path(9))
	churn := []ChurnEvent{
		{Node: 1, Time: 1, Op: ChurnLeave}, {Node: 1, Time: 2, Op: ChurnJoin, DropState: true},
		{Node: 2, Time: 1, Op: ChurnLeave}, {Node: 2, Time: 2.5, Op: ChurnJoin, DropState: true},
		{Node: 20, Time: 0.5, Op: ChurnLeave}, {Node: 20, Time: 3, Op: ChurnJoin},
	}
	var rows []referenceRow
	for seed := uint64(0); seed < 4; seed++ {
		for _, s := range []struct {
			name string
			g    *graph.Graph
			cfg  SyncConfig
		}{
			{"sync-reference/plain", cube, SyncConfig{Protocol: PushPull}},
			{"sync-reference/crash", path, SyncConfig{Protocol: PushPull, Crashes: []Crash{{Node: 4, Time: 1}}}},
		} {
			r, err := RunSyncReference(s.g, 0, s.cfg, xrand.New(seed))
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatalf("%s: %v", s.name, err)
			}
			rows = append(rows, referenceRow{name: fmt.Sprintf("%s/seed=%d", s.name, seed), sync: r})
		}
		for _, a := range []struct {
			name string
			cfg  AsyncConfig
		}{
			{"async-reference/plain", AsyncConfig{Protocol: PushPull}},
			{"async-reference/churn amnesiac", AsyncConfig{Protocol: PushPull, Churn: churn}},
		} {
			r, err := RunAsyncReference(cube, 0, a.cfg, xrand.New(seed))
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatalf("%s: %v", a.name, err)
			}
			rows = append(rows, referenceRow{name: fmt.Sprintf("%s/seed=%d", a.name, seed), async: r})
		}
	}
	return rows
}

// sameCurve fails unless got is want bit for bit, nil slices included.
func sameCurve(t *testing.T, name string, got, want *Curve) {
	t.Helper()
	for _, s := range []struct {
		what      string
		got, want []float64
	}{{"Times", got.Times, want.Times}, {"Fractions", got.Fractions, want.Fractions}} {
		if len(s.got) != len(s.want) || (s.got == nil) != (s.want == nil) {
			t.Fatalf("%s: %s %v, want %v", name, s.what, s.got, s.want)
		}
		for i := range s.got {
			if math.Float64bits(s.got[i]) != math.Float64bits(s.want[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", name, s.what, i, s.got[i], s.want[i])
			}
		}
	}
}

// TestCurveMatchesSortedTimes holds both Curve methods bit for bit to
// the sort of the informed nodes' times they were first written as, on
// a result and on its twin without the stepper's informing order: every
// row of the Step-by-Step pin under both timings, the literal engines'
// results, and hand-built results with ties, never-informed (-1)
// holes, no informed node at all, and no node.
func TestCurveMatchesSortedTimes(t *testing.T) {
	checkSync := func(name string, r *SyncResult) {
		t.Helper()
		want := curveFromTimes32Oracle(r.InformedAt, len(r.InformedAt))
		plain := *r
		plain.order = nil
		sameCurve(t, name, r.Curve(), want)
		sameCurve(t, name+"/no order", plain.Curve(), want)
	}
	checkAsync := func(name string, r *AsyncResult) {
		t.Helper()
		want := curveFromTimesOracle(r.InformedAt, len(r.InformedAt))
		plain := *r
		plain.order = nil
		sameCurve(t, name, r.Curve(), want)
		sameCurve(t, name+"/no order", plain.Curve(), want)
	}
	for _, row := range stepperRows(t) {
		async, sync := stepperTwins(t, row)
		for seed := uint64(0); seed < 4; seed++ {
			out, _ := async.Run(xrand.New(seed))
			checkAsync(fmt.Sprintf("async %s/seed=%d", row.name, seed), out.Async)
			out, _ = sync.Run(xrand.New(seed))
			checkSync(fmt.Sprintf("sync %s/seed=%d", row.name, seed), out.Sync)
		}
	}
	for _, row := range referenceRows(t) {
		if row.sync != nil {
			checkSync(row.name, row.sync)
		} else {
			checkAsync(row.name, row.async)
		}
	}
	rng := xrand.New(17)
	for _, n := range []int{1, 2, 7, 100, 1000} {
		ties, holes := make([]float64, n), make([]float64, n)
		none := make([]float64, n)
		for v := range ties {
			ties[v] = float64(rng.Intn(4))
			holes[v] = rng.Float64() * 10
			if rng.Bernoulli(0.3) {
				holes[v] = -1
			}
			none[v] = -1
		}
		for name, at := range map[string][]float64{"ties": ties, "holes": holes, "none": none} {
			checkAsync(fmt.Sprintf("%s/n=%d", name, n), &AsyncResult{InformedAt: at})
			rounds := make([]int32, n)
			for v, t := range at {
				rounds[v] = int32(t)
				if t < 0 {
					rounds[v] = -1
				}
			}
			checkSync(fmt.Sprintf("%s/n=%d", name, n), &SyncResult{InformedAt: rounds})
		}
	}
	checkAsync("empty", &AsyncResult{})
	checkSync("empty", &SyncResult{})
}
