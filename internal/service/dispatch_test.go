package service_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rumor/internal/core"
	_ "rumor/internal/experiments" // registers the async-reference kind
	"rumor/internal/service"
)

// dispatchCells is one small cell per engine-selection branch: every
// (timing, view, variant, schedule, topology) combination that picks a
// different engine or consumes randomness differently. The golden file
// pins the result bytes of each against history, so a refactor of the
// dispatch cannot silently move a scenario onto another engine.
func dispatchCells() []struct {
	name string
	cell service.CellSpec
} {
	crashes := []service.CrashSpec{{Node: 5, Time: 1.5}, {Node: 9, Time: 3}}
	leaveOnly := []service.ChurnSpec{
		{Node: 5, Time: 1.5, Op: service.ChurnOpLeave},
		{Node: 9, Time: 3, Op: service.ChurnOpLeave},
	}
	churn := []service.ChurnSpec{
		{Node: 3, Time: 1, Op: service.ChurnOpLeave},
		{Node: 3, Time: 4, Op: service.ChurnOpJoin, DropState: true},
		{Node: 7, Time: 2, Op: service.ChurnOpLeave},
		{Node: 7, Time: 5, Op: service.ChurnOpJoin},
		{Node: 9, Time: 3, Op: service.ChurnOpLeave},
	}
	const (
		global  = "global-clock"
		perNode = "per-node-clocks"
		perEdge = "per-edge-clocks"
	)
	type S = service.CellSpec
	return []struct {
		name string
		cell S
	}{
		{"sync push", S{Family: "hypercube", N: 32, Protocol: "push", Timing: "sync", Trials: 5, GraphSeed: 1, TrialSeed: 2}},
		{"sync pull", S{Family: "complete", N: 24, Protocol: "pull", Timing: "sync", Trials: 5, GraphSeed: 1, TrialSeed: 3}},
		{"sync push-pull", S{Family: "gnp", N: 48, Protocol: "push-pull", Timing: "sync", Trials: 5, GraphSeed: 4, TrialSeed: 5}},
		{"sync source 1 on star", S{Family: "star", N: 20, Protocol: "push-pull", Timing: "sync", Source: 1, Trials: 5, GraphSeed: 1, TrialSeed: 6}},
		{"sync loss", S{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "sync", LossProb: 0.3, Trials: 5, GraphSeed: 1, TrialSeed: 7}},
		{"sync multi-source", S{Family: "cycle", N: 30, Protocol: "push", Timing: "sync", Source: 1, ExtraSources: []int{11, 21}, Trials: 5, GraphSeed: 1, TrialSeed: 8}},
		{"sync crashes", S{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "sync", Crashes: crashes, Trials: 5, GraphSeed: 1, TrialSeed: 9}},
		{"sync coverage fracs", S{Family: "torus", N: 36, Protocol: "push-pull", Timing: "sync", CoverageFracs: []float64{0.25, 0.75}, Trials: 5, GraphSeed: 1, TrialSeed: 10}},
		{"ppx", S{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "sync", Variant: "ppx", Trials: 5, GraphSeed: 1, TrialSeed: 11}},
		{"ppy", S{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "sync", Variant: "ppy", Trials: 5, GraphSeed: 1, TrialSeed: 12}},
		{"ppx loss", S{Family: "gnp", N: 48, Protocol: "push-pull", Timing: "sync", Variant: "ppx", LossProb: 0.2, Trials: 5, GraphSeed: 4, TrialSeed: 13}},
		{"quasirandom push-pull", S{Family: "complete", N: 24, Protocol: "push-pull", Timing: "sync", Quasirandom: true, Trials: 5, GraphSeed: 1, TrialSeed: 14}},
		{"quasirandom push loss multi-source", S{Family: "hypercube", N: 32, Protocol: "push", Timing: "sync", Quasirandom: true, LossProb: 0.1, ExtraSources: []int{17}, Trials: 5, GraphSeed: 1, TrialSeed: 15}},

		{"async default view", S{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "async", Trials: 5, GraphSeed: 1, TrialSeed: 16}},
		{"async global", S{Family: "hypercube", N: 32, Protocol: "push", Timing: "async", View: global, Trials: 5, GraphSeed: 1, TrialSeed: 17}},
		{"async per-node", S{Family: "hypercube", N: 32, Protocol: "pull", Timing: "async", View: perNode, Trials: 5, GraphSeed: 1, TrialSeed: 18}},
		{"async per-edge", S{Family: "star", N: 20, Protocol: "push-pull", Timing: "async", View: perEdge, Trials: 5, GraphSeed: 1, TrialSeed: 19}},
		{"async loss multi-source per-edge", S{Family: "gnp", N: 48, Protocol: "push-pull", Timing: "async", View: perEdge, LossProb: 0.2, ExtraSources: []int{9}, Trials: 5, GraphSeed: 4, TrialSeed: 20}},
		{"async crash-only global (thinning)", S{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "async", View: global, Crashes: crashes, Trials: 5, GraphSeed: 1, TrialSeed: 21}},
		{"async crash-only per-node (thinning)", S{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "async", View: perNode, Crashes: crashes, Trials: 5, GraphSeed: 1, TrialSeed: 22}},
		{"async crash-only per-edge (thinning)", S{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "async", View: perEdge, Crashes: crashes, Trials: 5, GraphSeed: 1, TrialSeed: 23}},
		{"async crash-only per-node loss (thinning)", S{Family: "complete", N: 24, Protocol: "push", Timing: "async", View: perNode, Crashes: crashes, LossProb: 0.2, Trials: 5, GraphSeed: 1, TrialSeed: 24}},
		{"async leave-only churn per-node (thinning)", S{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "async", View: perNode, Churn: leaveOnly, Trials: 5, GraphSeed: 1, TrialSeed: 22}},
		{"async leave-only churn global", S{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "async", View: global, Churn: leaveOnly, Trials: 5, GraphSeed: 1, TrialSeed: 21}},
		{"async crashes + churn per-node (thinning)", S{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "async", View: perNode, Crashes: crashes[:1], Churn: churn, Trials: 5, GraphSeed: 1, TrialSeed: 25}},

		{"sync churn", S{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "sync", Churn: churn, Trials: 5, GraphSeed: 7, TrialSeed: 26}},
		{"async churn global", S{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "async", Churn: churn, Trials: 5, GraphSeed: 7, TrialSeed: 27}},
		{"async churn per-node", S{Family: "hypercube", N: 32, Protocol: "push", Timing: "async", View: perNode, Churn: churn, Trials: 5, GraphSeed: 7, TrialSeed: 28}},
		{"sync stranded by churn", S{Family: "complete", N: 8, Protocol: "push-pull", Timing: "sync", Trials: 3, GraphSeed: 1, TrialSeed: 29,
			Churn: []service.ChurnSpec{{Node: 0, Time: 0.5, Op: service.ChurnOpLeave}}}},

		{"resample sync", S{Family: "gnp-threshold", N: 48, Protocol: "push-pull", Timing: "sync", Dynamic: service.DynamicResample, Trials: 4, GraphSeed: 1, TrialSeed: 30}},
		{"resample async", S{Family: "gnp-threshold", N: 48, Protocol: "push-pull", Timing: "async", Dynamic: service.DynamicResample, DynamicPeriod: 0.5, Trials: 4, GraphSeed: 1, TrialSeed: 31}},
		{"perturb sync", S{Family: "gnp", N: 48, Protocol: "push", Timing: "sync", Dynamic: service.DynamicPerturb, DynamicPeriod: 2, PerturbRate: 0.3, Trials: 4, GraphSeed: 4, TrialSeed: 32}},
		{"perturb async per-node", S{Family: "gnp", N: 48, Protocol: "push-pull", Timing: "async", View: perNode, Dynamic: service.DynamicPerturb, PerturbRate: 0.2, Trials: 4, GraphSeed: 4, TrialSeed: 33}},
		{"dynamic kitchen sink sync", S{Family: "complete", N: 24, Protocol: "push-pull", Timing: "sync", LossProb: 0.2, Crashes: crashes[:1],
			Dynamic: service.DynamicResample, DynamicPeriod: 3, Churn: churn[:2], Trials: 4, GraphSeed: 10, TrialSeed: 34}},
		{"dynamic kitchen sink async", S{Family: "complete", N: 24, Protocol: "push-pull", Timing: "async", View: perNode, LossProb: 0.2, Crashes: crashes[:1],
			ExtraSources: []int{2}, Dynamic: service.DynamicPerturb, PerturbRate: 0.5, Churn: churn[:2], Trials: 4, GraphSeed: 10, TrialSeed: 35}},
		{budgetSync, S{Family: "gnp-below-threshold", N: 16, Protocol: "push-pull", Timing: "sync",
			Dynamic: service.DynamicResample, DynamicPeriod: 1e9, Trials: 2, GraphSeed: 3, TrialSeed: 36}},
		{budgetAsync, S{Family: "gnp-below-threshold", N: 16, Protocol: "push-pull", Timing: "async",
			Dynamic: service.DynamicResample, DynamicPeriod: 1e9, Trials: 2, GraphSeed: 3, TrialSeed: 37}},

		{"async-reference global", S{Kind: "async-reference", Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "async", Trials: 5, GraphSeed: 1, TrialSeed: 39}},
		{"async-reference per-node", S{Kind: "async-reference", Family: "hypercube", N: 32, Protocol: "push", Timing: "async", View: perNode, Trials: 5, GraphSeed: 1, TrialSeed: 40}},
		{"async-reference per-edge", S{Kind: "async-reference", Family: "star", N: 20, Protocol: "pull", Timing: "async", View: perEdge, Trials: 5, GraphSeed: 1, TrialSeed: 41}},
	}
}

// The two cells whose epoch never ends on a disconnected base graph:
// they run to the default budget and must report unreached milestones.
const (
	budgetSync  = "dynamic budget exhausted sync"
	budgetAsync = "dynamic budget exhausted async"
)

// TestDispatchGolden pins, per dispatch branch, the canonical key and
// the SHA-256 of the executor's CellResult JSON. The file was recorded
// before the engines moved behind core's trial contract; the three
// crash-only per-node/per-edge async rows were re-recorded under their
// v4 keys when the event-heap engines were deleted. Run with -update
// only for an intentional, key-version-bumped change.
func TestDispatchGolden(t *testing.T) {
	rows := dispatchRows(t, &service.Executor{TrialWorkers: 2})
	// A lone Run on a zero Executor runs its trials on every idle core.
	if lone := dispatchRows(t, &service.Executor{}); lone != rows {
		t.Errorf("lone Runs on a zero Executor:\n%s\ntwo explicit trial workers:\n%s", lone, rows)
	}

	path := filepath.Join("testdata", "dispatch.golden")
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(path, []byte(rows), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if rows != string(want) {
		gotLines, wantLines := strings.Split(rows, "\n"), strings.Split(string(want), "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				t.Errorf("dispatch result drifted from %s at line %d:\ngot:  %s", path, i+1, gotLines[i])
				if i < len(wantLines) {
					t.Errorf("want: %s", wantLines[i])
				}
			}
		}
		if len(wantLines) > len(gotLines) {
			t.Errorf("golden file has %d lines, run produced %d", len(wantLines), len(gotLines))
		}
	}
}

// dispatchRows runs every dispatch cell on exec: one golden line each.
func dispatchRows(t *testing.T, exec *service.Executor) string {
	t.Helper()
	var b strings.Builder
	seen := map[string]string{}
	for _, tc := range dispatchCells() {
		res, _, err := exec.Run(context.Background(), 0, tc.cell)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if prev, dup := seen[res.Key]; dup {
			t.Fatalf("%s and %s share the key %s", tc.name, prev, res.Key)
		}
		seen[res.Key] = tc.name
		if tc.name == budgetSync || tc.name == budgetAsync {
			if got := res.Coverage["q100"]; got != -1 {
				t.Errorf("%s: q100 = %v, want -1 (the cell must exhaust its budget)", tc.name, got)
			}
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		b.WriteString(tc.name + "\t" + res.Key + "\t" + hex.EncodeToString(sum[:]) + "\n")
	}
	return b.String()
}

// TestOutOfRangeSourceFailsCell: a source the built graph does not have
// fails the cell — it is never rewritten to node 0, which made distinct
// cache keys return identical results — on every engine, through the
// executor and through the scheduler, and nothing is cached under the
// failed key.
func TestOutOfRangeSourceFailsCell(t *testing.T) {
	type S = service.CellSpec
	cells := map[string]S{
		"sync":         {Family: "complete", N: 16, Protocol: "push-pull", Timing: "sync", Source: 9999, Trials: 3, GraphSeed: 1, TrialSeed: 2},
		"async":        {Family: "complete", N: 16, Protocol: "push", Timing: "async", Source: 9999, Trials: 3, GraphSeed: 1, TrialSeed: 2},
		"first absent": {Family: "complete", N: 16, Protocol: "pull", Timing: "sync", Source: 16, Trials: 3, GraphSeed: 1, TrialSeed: 2},
		// Crash per-node: the row name (a test ID) predates the single async engine.
		"async heap": {Family: "complete", N: 16, Protocol: "push-pull", Timing: "async", View: "per-node-clocks", Source: 9999,
			Crashes: []service.CrashSpec{{Node: 1, Time: 1}}, Trials: 3, GraphSeed: 1, TrialSeed: 2},
		"ppx":             {Family: "complete", N: 16, Protocol: "push-pull", Timing: "sync", Variant: "ppx", Source: 9999, Trials: 3, GraphSeed: 1, TrialSeed: 2},
		"quasirandom":     {Family: "complete", N: 16, Protocol: "push-pull", Timing: "sync", Quasirandom: true, Source: 9999, Trials: 3, GraphSeed: 1, TrialSeed: 2},
		"dynamic":         {Family: "gnp", N: 16, Protocol: "push-pull", Timing: "sync", Dynamic: service.DynamicResample, Source: 9999, Trials: 3, GraphSeed: 1, TrialSeed: 2},
		"extra source":    {Family: "complete", N: 16, Protocol: "push-pull", Timing: "sync", ExtraSources: []int{9999}, Trials: 3, GraphSeed: 1, TrialSeed: 2},
		"async-reference": {Kind: "async-reference", Family: "complete", N: 16, Protocol: "push-pull", Timing: "async", Source: 9999, Trials: 3, GraphSeed: 1, TrialSeed: 2},
	}
	for name, cell := range cells {
		t.Run(name, func(t *testing.T) {
			results := service.NewResultCache(0)
			exec := &service.Executor{Results: results, Graphs: service.NewGraphCache(0)}
			res, _, err := exec.Run(context.Background(), 0, cell)
			if !errors.Is(err, service.ErrBadSpec) || !errors.Is(err, core.ErrBadSource) {
				t.Fatalf("Executor.Run = %v, %v; want an error matching ErrBadSpec and core.ErrBadSource", res, err)
			}
			bad := cell.Source
			if len(cell.ExtraSources) > 0 {
				bad = cell.ExtraSources[0]
			}
			if msg := err.Error(); !strings.Contains(msg, strconv.Itoa(bad)) || !strings.Contains(msg, "n=16") {
				t.Errorf("error %q does not name the source %d and the graph's n", msg, bad)
			}
			if _, ok := results.Get(cell.Key()); ok {
				t.Error("a failed cell was written to the result cache")
			}

			sched := service.NewScheduler(service.SchedulerConfig{Workers: 2, Results: results})
			defer sched.Shutdown(context.Background())
			job, err := sched.SubmitCells([]S{cell}, 0)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-job.Terminal():
			case <-time.After(30 * time.Second):
				t.Fatal("job with an out-of-range source is wedged")
			}
			if st := job.Status(); st.State != service.JobFailed || !errors.Is(job.Err(), core.ErrBadSource) {
				t.Errorf("job state = %s (err %v), want failed with core.ErrBadSource", st.State, job.Err())
			}
			if _, ok := results.Get(cell.Key()); ok {
				t.Error("the scheduler cached a failed cell")
			}
		})
	}
	// In-range neighbours of the failing specs are distinct measurements.
	a, b := cells["sync"], cells["sync"]
	a.Source, b.Source = 0, 1
	if a.Key() == b.Key() {
		t.Error("sources 0 and 1 share a key")
	}
}
