package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"rumor/internal/cachestore"
	"rumor/internal/stats"
)

// dynamicTestCells is the scenario grid the determinism tests replay:
// every dynamic mode and churn shape, in both timings.
func dynamicTestCells() []CellSpec {
	churn := []ChurnSpec{
		{Node: 3, Time: 1, Op: ChurnOpLeave},
		{Node: 3, Time: 4, Op: ChurnOpJoin, DropState: true},
		{Node: 7, Time: 2, Op: ChurnOpLeave},
		{Node: 7, Time: 5, Op: ChurnOpJoin},
		{Node: 9, Time: 3, Op: ChurnOpLeave},
	}
	return []CellSpec{
		{Family: "gnp-threshold", N: 48, Protocol: "push-pull", Timing: "sync",
			Dynamic: DynamicResample, Trials: 4, GraphSeed: 1, TrialSeed: 2},
		{Family: "gnp-threshold", N: 48, Protocol: "push-pull", Timing: "async",
			Dynamic: DynamicResample, Trials: 4, GraphSeed: 1, TrialSeed: 3},
		{Family: "gnp", N: 48, Protocol: "push", Timing: "sync",
			Dynamic: DynamicPerturb, DynamicPeriod: 2, PerturbRate: 0.3, Trials: 4, GraphSeed: 4, TrialSeed: 5},
		{Family: "gnp", N: 48, Protocol: "push-pull", Timing: "async", View: "per-node-clocks",
			Dynamic: DynamicPerturb, PerturbRate: 0.2, Trials: 4, GraphSeed: 4, TrialSeed: 6},
		{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "sync",
			Churn: churn, Trials: 4, GraphSeed: 7, TrialSeed: 8},
		{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "async",
			Churn: churn, Trials: 4, GraphSeed: 7, TrialSeed: 9},
		{Family: "complete", N: 24, Protocol: "push-pull", Timing: "sync", LossProb: 0.2,
			Crashes: []CrashSpec{{Node: 5, Time: 2}},
			Dynamic: DynamicResample, DynamicPeriod: 3, Churn: churn[:2],
			Trials: 4, GraphSeed: 10, TrialSeed: 11},
	}
}

// revisitTestCells are dynamic cells whose trials revisit many epochs:
// on one trial worker every trial after the first walks the epochs its
// cursor walked before.
func revisitTestCells() []CellSpec {
	churn := []ChurnSpec{
		{Node: 5, Time: 1, Op: ChurnOpLeave},
		{Node: 5, Time: 3, Op: ChurnOpJoin, DropState: true},
		{Node: 11, Time: 2, Op: ChurnOpLeave},
	}
	return []CellSpec{
		{Family: "gnp-above-threshold", N: 64, Protocol: "push-pull", Timing: "sync",
			Dynamic: DynamicResample, Trials: 12, GraphSeed: 21, TrialSeed: 22},
		{Family: "gnp-above-threshold", N: 64, Protocol: "push-pull", Timing: "async",
			Dynamic: DynamicResample, DynamicPeriod: 0.25, Trials: 12, GraphSeed: 21, TrialSeed: 23},
		{Family: "gnp", N: 64, Protocol: "push-pull", Timing: "sync",
			Dynamic: DynamicPerturb, PerturbRate: 0.25, Trials: 12, GraphSeed: 24, TrialSeed: 25},
		{Family: "gnp", N: 64, Protocol: "push-pull", Timing: "async",
			Dynamic: DynamicPerturb, DynamicPeriod: 0.5, PerturbRate: 0.25, Trials: 12, GraphSeed: 24, TrialSeed: 26},
		{Family: "gnp-above-threshold", N: 64, Protocol: "push", Timing: "async",
			Dynamic: DynamicResample, DynamicPeriod: 0.5, Churn: churn, Trials: 12, GraphSeed: 27, TrialSeed: 28},
	}
}

// TestExecutorRunsDynamicCells drives every v3 scenario axis through
// the executor end-to-end and checks the samples are sane.
func TestExecutorRunsDynamicCells(t *testing.T) {
	exec := &Executor{Graphs: NewGraphCache(0)}
	for i, cell := range dynamicTestCells() {
		res, _, err := exec.Run(context.Background(), i, cell)
		if err != nil {
			t.Fatalf("cell %d (%+v): %v", i, cell, err)
		}
		if len(res.Times) != cell.Trials {
			t.Fatalf("cell %d: %d times, want %d", i, len(res.Times), cell.Trials)
		}
		for _, v := range res.Times {
			if v < 0 {
				t.Fatalf("cell %d: negative spreading time %v", i, v)
			}
		}
	}
}

// TestDynamicCellsDeterministicAcrossWorkersAndCache: dynamic cell
// results are a pure function of the spec — worker counts and cache
// state change only speed, never bytes. The revisiting cells hold a
// cursor that keeps its epochs across trials to the graphs a fresh one
// builds: one, two and three trial workers split the trials over as
// many cursors.
func TestDynamicCellsDeterministicAcrossWorkersAndCache(t *testing.T) {
	cells := append(dynamicTestCells(), revisitTestCells()...)
	cached := &Executor{CellWorkers: 4, TrialWorkers: 4,
		Results: NewResultCache(0), Graphs: NewGraphCache(0)}
	cold, err := cached.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	want := string(marshalResults(t, cold))

	warm, err := cached.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(marshalResults(t, warm)); got != want {
		t.Error("warm-cache dynamic results differ from cold results")
	}
	if cached.Results.Stats().Hits == 0 {
		t.Error("second run produced no cache hits")
	}

	for _, workers := range []int{1, 2, 3} {
		serial := &Executor{CellWorkers: 1, TrialWorkers: workers}
		rerun, err := serial.RunCells(context.Background(), cells)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(marshalResults(t, rerun)); got != want {
			t.Errorf("cache-less dynamic results on %d trial workers differ from parallel cached results", workers)
		}
	}
}

// TestSchedulerMatchesLocalDynamic: the scheduler path produces the
// direct executor's bytes for dynamic cells too.
func TestSchedulerMatchesLocalDynamic(t *testing.T) {
	cells := dynamicTestCells()
	sched := NewScheduler(SchedulerConfig{Workers: 3})
	defer sched.Shutdown(context.Background())
	viaScheduler, err := sched.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := (&Executor{}).RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := marshalResults(t, viaScheduler), marshalResults(t, direct); string(a) != string(b) {
		t.Errorf("scheduler and direct executor disagree on dynamic cells:\n%s\n%s", a, b)
	}
}

// TestChurnStrandedCell: a schedule under which every node permanently
// leaves strands the rumor; the cell terminates with unreached
// milestones (-1) instead of failing or spinning.
func TestChurnStrandedCell(t *testing.T) {
	for _, timing := range []string{TimingSync, TimingAsync} {
		churn := make([]ChurnSpec, 16)
		for i := range churn {
			churn[i] = ChurnSpec{Node: i, Time: 0.5, Op: ChurnOpLeave}
		}
		cell := CellSpec{Family: "complete", N: 16, Protocol: "push-pull", Timing: timing,
			Churn: churn, Trials: 2, GraphSeed: 1, TrialSeed: 2}
		res, _, err := (&Executor{}).Run(context.Background(), 0, cell)
		if err != nil {
			t.Fatalf("%s stranded cell failed: %v", timing, err)
		}
		if got := res.Coverage["q100"]; got != -1 {
			t.Errorf("%s: q100 = %v with everyone gone, want -1", timing, got)
		}
	}
}

// TestV2CacheReplayAfterBump is the acceptance check for the v3 key
// bump: a cache directory written by a pre-bump (v2) process replays
// every v2 cell from disk — zero recomputation — once the store opens
// with the compat list, because v2-shaped specs still render their
// exact v2 keys.
func TestV2CacheReplayAfterBump(t *testing.T) {
	dir := t.TempDir()
	cells := testCells(8)

	// A pre-bump process: same canonical keys, store stamped "v2".
	v2store, err := cachestore.Open(cachestore.Options{Dir: dir, KeyVersion: CellKeyVersionV2})
	if err != nil {
		t.Fatal(err)
	}
	v2exec := &Executor{Results: NewTieredResultCache(NewResultCache(0), v2store), Graphs: NewGraphCache(0)}
	coldRes, err := v2exec.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := v2store.Close(); err != nil {
		t.Fatal(err)
	}

	// The post-bump process accepts the v2 records via CompatVersions.
	v3store, err := cachestore.Open(cachestore.Options{
		Dir:            dir,
		KeyVersion:     CellKeyVersion,
		CompatVersions: CellKeyCompatVersions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v3store.Close()
	warmCache := NewTieredResultCache(NewResultCache(0), v3store)
	warmExec := &Executor{Results: warmCache, Graphs: NewGraphCache(0)}
	warmRes, err := warmExec.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshalResults(t, warmRes), marshalResults(t, coldRes); string(got) != string(want) {
		t.Errorf("v2 replay diverged from the pre-bump run\npre:  %s\npost: %s", want, got)
	}
	st := warmCache.Stats()
	if int(st.DiskHits) != len(cells) {
		t.Errorf("want every v2 cell served from disk after the bump, got %+v", st)
	}
}

// TestV3CacheReplayAfterV4Bump: a cache directory written by a v3
// process holds (a) a plain async cell and (b) a crash-only per-node
// cell under the key it had then, computed by the event-heap engine.
// Reopened under v4 with the compat list, (a) is served from disk
// byte-identically, while (b) — whose key moved with its engine — is
// recomputed under the new key and the heap-era record is never served.
func TestV3CacheReplayAfterV4Bump(t *testing.T) {
	dir := t.TempDir()
	plain := CellSpec{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: "async",
		View: "per-node-clocks", Trials: 4, GraphSeed: 1, TrialSeed: 2}
	crash := plain
	crash.Crashes = []CrashSpec{{Node: 5, Time: 1.5}}
	oldSum := sha256.Sum256([]byte(CellKeyVersionV2 + strings.TrimPrefix(crash.canonical(), CellKeyVersion)))
	oldKey := hex.EncodeToString(oldSum[:16])
	if oldKey == crash.Key() {
		t.Fatal("the crash per-node cell kept its pre-v4 key")
	}

	v3store, err := cachestore.Open(cachestore.Options{Dir: dir, KeyVersion: CellKeyVersionV3,
		CompatVersions: []string{CellKeyVersionV2}})
	if err != nil {
		t.Fatal(err)
	}
	v3cache := NewTieredResultCache(NewResultCache(0), v3store)
	coldRes, err := (&Executor{Results: v3cache, Graphs: NewGraphCache(0)}).RunCells(context.Background(), []CellSpec{plain})
	if err != nil {
		t.Fatal(err)
	}
	v3cache.Put(oldKey, &CellResult{Key: oldKey, Times: []float64{-7}})
	if err := v3cache.Close(); err != nil {
		t.Fatal(err)
	}

	v4store, err := cachestore.Open(cachestore.Options{
		Dir:            dir,
		KeyVersion:     CellKeyVersion,
		CompatVersions: CellKeyCompatVersions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v4store.Close()
	if !v4store.Has(oldKey) {
		t.Fatal("the v3 store's records were discarded instead of kept under compat")
	}
	warmCache := NewTieredResultCache(NewResultCache(0), v4store)
	warmRes, err := (&Executor{Results: warmCache, Graphs: NewGraphCache(0)}).RunCells(context.Background(), []CellSpec{plain, crash})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshalResults(t, warmRes[:1]), marshalResults(t, coldRes); string(got) != string(want) {
		t.Errorf("v3 replay diverged from the pre-bump run\npre:  %s\npost: %s", want, got)
	}
	if st := warmCache.Stats(); st.DiskHits != 1 || st.Misses != 1 {
		t.Errorf("want the plain cell served from disk and the crash cell recomputed, got %+v", st)
	}
	if got := warmRes[1]; got.Key != crash.Key() || len(got.Times) != crash.Trials {
		t.Errorf("crash per-node cell = key %s, %d times; want a fresh result under %s", got.Key, len(got.Times), crash.Key())
	}
}

// TestDynamicResampleStatisticalSanity: on G(n,p) above the
// connectivity threshold, re-sampling the graph every round keeps the
// async spreading time finite and within a wide, seeded tolerance band
// of the static baseline — the headline claim E17 measures, pinned
// here at test scale so regressions surface in `go test`.
func TestDynamicResampleStatisticalSanity(t *testing.T) {
	static := CellSpec{Family: "gnp-above-threshold", N: 128, Protocol: "push-pull",
		Timing: "async", Trials: 40, GraphSeed: 21, TrialSeed: 22}
	dynamic := static
	dynamic.Dynamic = DynamicResample

	exec := &Executor{Graphs: NewGraphCache(0)}
	base, _, err := exec.Run(context.Background(), 0, static)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := exec.Run(context.Background(), 1, dynamic)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage["q100"] < 0 {
		t.Fatal("resampled above-threshold G(n,p) never reached full coverage")
	}
	baseMean, dynMean := stats.Mean(base.Times), stats.Mean(res.Times)
	if !(dynMean > 0) {
		t.Fatalf("dynamic mean = %v", dynMean)
	}
	if ratio := dynMean / baseMean; ratio < 0.25 || ratio > 4 {
		t.Errorf("dynamic/static async mean ratio = %.2f (means %.2f / %.2f), outside the [0.25, 4] sanity band",
			ratio, dynMean, baseMean)
	}
}
