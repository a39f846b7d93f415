package service

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

// goldenV3Specs are representative dynamic/churn cells; their keys and
// full canonical forms are pinned below and in testdata/canonical.golden.
func goldenV3Specs() []struct {
	name string
	spec CellSpec
} {
	return []struct {
		name string
		spec CellSpec
	}{
		{
			name: "resample default period",
			spec: CellSpec{Family: "gnp-threshold", N: 256, Protocol: "push-pull", Timing: "sync",
				Trials: 100, GraphSeed: 1, TrialSeed: 2, Dynamic: DynamicResample},
		},
		{
			name: "resample explicit period async",
			spec: CellSpec{Family: "gnp-above-threshold", N: 256, Protocol: "push-pull", Timing: "async",
				Trials: 50, GraphSeed: 3, TrialSeed: 4, Dynamic: DynamicResample, DynamicPeriod: 2},
		},
		{
			name: "perturb",
			spec: CellSpec{Family: "gnp", N: 128, Protocol: "push", Timing: "sync",
				Trials: 20, GraphSeed: 5, TrialSeed: 6, Dynamic: DynamicPerturb, PerturbRate: 0.2},
		},
		{
			name: "churn only",
			spec: CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull", Timing: "async",
				Trials: 10, GraphSeed: 7, TrialSeed: 8,
				Churn: []ChurnSpec{
					{Node: 5, Time: 2, Op: ChurnOpLeave},
					{Node: 5, Time: 8, Op: ChurnOpJoin, DropState: true},
				}},
		},
		{
			name: "kitchen sink",
			spec: CellSpec{Family: "gnp-above-threshold", N: 200, Protocol: "push-pull", Timing: "sync",
				LossProb: 0.1, Trials: 5, GraphSeed: 9, TrialSeed: 10, ExtraSources: []int{4, 2},
				Crashes: []CrashSpec{{Node: 1, Time: 0.5}},
				Dynamic: DynamicPerturb, DynamicPeriod: 3, PerturbRate: 0.5,
				CoverageFracs: []float64{0.5, 1},
				Churn: []ChurnSpec{
					{Node: 2, Time: 1, Op: ChurnOpLeave},
					{Node: 3, Time: 1, Op: ChurnOpLeave},
					{Node: 2, Time: 4, Op: ChurnOpJoin},
				}},
		},
	}
}

// TestCellKeyGoldenV3 pins the v3 cache keys of dynamic/churn specs,
// exactly like TestCellKeyGoldenV2 pins the static ones. A failure
// means the canonical rendering changed: revert, or bump the version
// AND update these constants.
func TestCellKeyGoldenV3(t *testing.T) {
	want := []string{
		"d35c3d5031971eff6ac5ebcf49cc4ee1",
		"869e792942f1171d4b689ab70bb73e3c",
		"259b4262c6a4c833ca88400b92dc8ca7",
		"67c7bbdef3eeee8535ad4a352cf3b08e",
		"033862bbaeffc0d70efc67bdf60b0e94",
	}
	for i, tc := range goldenV3Specs() {
		if got := tc.spec.Key(); got != want[i] {
			t.Errorf("%s: key = %s, want %s (canonical form changed — bump the version)", tc.name, got, want[i])
		}
		if err := tc.spec.Validate(); err != nil {
			t.Errorf("%s: golden spec no longer validates: %v", tc.name, err)
		}
	}
}

// TestCellKeyV2Regression: key-version bumps are append-only, so the
// version prefix is per spec. Every spec that uses no dynamic/churn
// field and is not a crash-only per-node/per-edge async cell must keep
// rendering the exact original "v2|..." canonical form (and therefore
// the exact v2 key), so caches persisted before the bumps replay
// without recomputation. Dynamic specs must render the "v3|..." form,
// whose body is precisely the v2 body of the same spec with the dynamic
// fields appended. The cells v4 moved onto the thinning stepper render
// "v4|..." with the v2 body unchanged.
func TestCellKeyV2Regression(t *testing.T) {
	crashes := []CrashSpec{{Node: 2, Time: 1.5}}
	leave := []ChurnSpec{{Node: 3, Time: 1, Op: ChurnOpLeave}}
	v2 := []CellSpec{
		{Family: "hypercube", N: 1024, Protocol: "push-pull", Timing: "sync",
			Trials: 100, GraphSeed: 1, TrialSeed: 2},
		{Family: "star", N: 512, Protocol: "push-pull", Timing: "async",
			View: "per-edge-clocks", Trials: 50, GraphSeed: 3, TrialSeed: 4, Source: 1},
		{Family: "gnp", N: 128, Protocol: "push", Timing: "sync", LossProb: 0.25,
			Trials: 10, GraphSeed: 7, TrialSeed: 8, ExtraSources: []int{5, 3},
			Crashes: crashes},
		{Kind: "time", Family: "complete", N: 256, Protocol: "push-pull", Timing: "sync",
			Quasirandom: true, Trials: 80, GraphSeed: 5, TrialSeed: 6},
		// Crashes on the global clock always ran on the stepper.
		{Family: "hypercube", N: 64, Protocol: "push-pull", Timing: "async",
			Crashes: crashes, Trials: 10, GraphSeed: 1, TrialSeed: 2},
		{Family: "hypercube", N: 64, Protocol: "push-pull", Timing: "async", View: "global-clock",
			Crashes: crashes, Trials: 10, GraphSeed: 1, TrialSeed: 2},
		// async-reference rejects crashes; its key never depended on them.
		{Kind: "async-reference", Family: "hypercube", N: 64, Protocol: "push-pull", Timing: "async",
			View: "per-node-clocks", Crashes: crashes, Trials: 10, GraphSeed: 1, TrialSeed: 2},
	}
	for i, spec := range v2 {
		canon := spec.canonical()
		if !strings.HasPrefix(canon, CellKeyVersionV2+"|") {
			t.Errorf("v2-shaped spec %d renders %q, want a %q prefix", i, canon, CellKeyVersionV2+"|")
		}
		if strings.Contains(canon, "|dyn=") || strings.Contains(canon, "|churn=") {
			t.Errorf("v2-shaped spec %d leaked dynamic fields into %q", i, canon)
		}
	}

	v3 := goldenV3Specs()
	// Crashes in a per-node view stay v3 once churn or a dynamic
	// topology is involved: those always ran on the stepper.
	for _, dyn := range []CellSpec{
		{Family: "hypercube", N: 64, Protocol: "push-pull", Timing: "async", View: "per-node-clocks",
			Crashes: crashes, Churn: leave, Trials: 10, GraphSeed: 1, TrialSeed: 2},
		{Family: "gnp", N: 64, Protocol: "push-pull", Timing: "async", View: "per-node-clocks",
			Crashes: crashes, Dynamic: DynamicResample, Trials: 10, GraphSeed: 1, TrialSeed: 2},
	} {
		v3 = append(v3, struct {
			name string
			spec CellSpec
		}{"crash per-node + " + dyn.Dynamic + "/churn", dyn})
	}
	for _, tc := range v3 {
		canon := tc.spec.canonical()
		if !strings.HasPrefix(canon, CellKeyVersionV3+"|") {
			t.Errorf("%s: renders %q, want a %q prefix", tc.name, canon, CellKeyVersionV3+"|")
			continue
		}
		// Clearing the dynamic fields must recover the exact v2 body of
		// the underlying static measurement: the v3 rendering is the v2
		// body plus an appended suffix, nothing rearranged.
		static := tc.spec
		static.Dynamic, static.DynamicPeriod, static.PerturbRate, static.Churn = "", 0, 0, nil
		_, staticBody, _ := strings.Cut(static.canonical(), "|")
		_, v3body, _ := strings.Cut(canon, "|")
		if !strings.HasPrefix(v3body, staticBody+"|dyn=") {
			t.Errorf("%s: v3 form is not the v2 body plus a dynamic suffix:\nstatic: %s\nv3:     %s", tc.name, static.canonical(), canon)
		}
	}

	for _, view := range []string{"per-node-clocks", "per-edge-clocks"} {
		spec := CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull", Timing: "async", View: view,
			Crashes: crashes, Trials: 10, GraphSeed: 1, TrialSeed: 2}
		canon := spec.canonical()
		if !strings.HasPrefix(canon, CellKeyVersion+"|") {
			t.Errorf("crash %s: renders %q, want a %q prefix", view, canon, CellKeyVersion+"|")
		}
		// The v4 body is the v2 body: dropping the crashes and putting
		// them back as text must give the same string.
		crashFree := spec
		crashFree.Crashes = nil
		want := strings.Replace(crashFree.canonical(), "|crash=|", "|crash=2@1.5|", 1)
		if got := CellKeyVersionV2 + strings.TrimPrefix(canon, CellKeyVersion); got != want {
			t.Errorf("crash %s: v4 body is not the v2 body:\nv4: %s\nv2: %s", view, canon, want)
		}
	}
}

// TestCanonicalGoldenFile pins the byte-exact canonical strings of the
// golden specs (run with -update to regenerate after an intentional,
// version-bumped change).
func TestCanonicalGoldenFile(t *testing.T) {
	var b strings.Builder
	for _, tc := range goldenV3Specs() {
		b.WriteString(tc.name)
		b.WriteByte('\t')
		b.WriteString(tc.spec.canonical())
		b.WriteByte('\n')
	}
	// One v2-shaped spec rides along so the fixture also pins the
	// pre-bump form.
	v2 := CellSpec{Family: "hypercube", N: 1024, Protocol: "push-pull", Timing: "sync",
		Trials: 100, GraphSeed: 1, TrialSeed: 2}
	b.WriteString("v2 sync baseline\t")
	b.WriteString(v2.canonical())
	b.WriteByte('\n')

	path := filepath.Join("testdata", "canonical.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("canonical forms drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestCellKeyDynamicNormalization: documented v3 aliases and
// distinctions.
func TestCellKeyDynamicNormalization(t *testing.T) {
	base := CellSpec{Family: "gnp-threshold", N: 256, Protocol: "push-pull", Timing: "sync",
		Trials: 100, GraphSeed: 1, TrialSeed: 2, Dynamic: DynamicResample}

	// Period 0 means 1: the default made explicit keeps the key.
	explicit := base
	explicit.DynamicPeriod = 1
	if base.Key() != explicit.Key() {
		t.Error("explicit default period changed the key")
	}

	// Churn sorts stably by time: listed order of same-time events is
	// identity, order of different-time events is not.
	reordered := base
	reordered.Churn = []ChurnSpec{
		{Node: 5, Time: 8, Op: ChurnOpJoin},
		{Node: 5, Time: 2, Op: ChurnOpLeave},
	}
	sorted := base
	sorted.Churn = []ChurnSpec{
		{Node: 5, Time: 2, Op: ChurnOpLeave},
		{Node: 5, Time: 8, Op: ChurnOpJoin},
	}
	if reordered.Key() != sorted.Key() {
		t.Error("churn order across distinct times changed the key")
	}
	sameTime := base
	sameTime.Churn = []ChurnSpec{
		{Node: 5, Time: 2, Op: ChurnOpLeave},
		{Node: 6, Time: 2, Op: ChurnOpLeave},
	}
	swapped := base
	swapped.Churn = []ChurnSpec{
		{Node: 6, Time: 2, Op: ChurnOpLeave},
		{Node: 5, Time: 2, Op: ChurnOpLeave},
	}
	if sameTime.Key() == swapped.Key() {
		t.Error("same-time churn order is part of the identity but shares a key")
	}

	// Distinct dynamic measurements must get distinct keys.
	distinct := []CellSpec{base}
	period := base
	period.DynamicPeriod = 2
	perturb := base
	perturb.Dynamic = DynamicPerturb
	perturb.PerturbRate = 0.2
	rate := perturb
	rate.PerturbRate = 0.4
	churned := base
	churned.Churn = []ChurnSpec{{Node: 1, Time: 1, Op: ChurnOpLeave}}
	dropped := base
	dropped.Churn = []ChurnSpec{
		{Node: 1, Time: 1, Op: ChurnOpLeave},
		{Node: 1, Time: 2, Op: ChurnOpJoin, DropState: true},
	}
	kept := base
	kept.Churn = []ChurnSpec{
		{Node: 1, Time: 1, Op: ChurnOpLeave},
		{Node: 1, Time: 2, Op: ChurnOpJoin},
	}
	static := base
	static.Dynamic = ""
	distinct = append(distinct, period, perturb, rate, churned, dropped, kept, static)
	seen := map[string]int{}
	for i, s := range distinct {
		if prev, dup := seen[s.Key()]; dup {
			t.Errorf("dynamic specs %d and %d share a key", prev, i)
		}
		seen[s.Key()] = i
	}
}

func TestCellSpecValidateDynamic(t *testing.T) {
	good := []CellSpec{
		{Family: "gnp-threshold", N: 64, Protocol: "push-pull", Timing: "sync",
			Dynamic: DynamicResample, Trials: 1},
		{Family: "gnp", N: 64, Protocol: "push", Timing: "async", View: "per-node-clocks",
			Dynamic: DynamicPerturb, DynamicPeriod: 2, PerturbRate: 0.5, Trials: 1},
		{Family: "hypercube", N: 64, Protocol: "push-pull", Timing: "async",
			Churn:  []ChurnSpec{{Node: 1, Time: 1, Op: ChurnOpLeave}, {Node: 1, Time: 2, Op: ChurnOpJoin, DropState: true}},
			Trials: 1},
		{Family: "hypercube", N: 64, Protocol: "push", Timing: "sync",
			Crashes: []CrashSpec{{Node: 2, Time: 1}},
			Churn:   []ChurnSpec{{Node: 3, Time: 1, Op: ChurnOpLeave}},
			Dynamic: DynamicResample, DynamicPeriod: 0.5, Trials: 1},
	}
	for i, spec := range good {
		if err := spec.Validate(); err != nil {
			t.Errorf("good dynamic spec %d rejected: %v", i, err)
		}
	}

	bad := []struct {
		name string
		spec CellSpec
	}{
		{"unknown dynamic mode", CellSpec{Family: "gnp", N: 64, Protocol: "push", Timing: "sync",
			Dynamic: "rewire", Trials: 1}},
		{"period without dynamic", CellSpec{Family: "gnp", N: 64, Protocol: "push", Timing: "sync",
			DynamicPeriod: 2, Trials: 1}},
		{"rate without dynamic", CellSpec{Family: "gnp", N: 64, Protocol: "push", Timing: "sync",
			PerturbRate: 0.5, Trials: 1}},
		{"rate on resample", CellSpec{Family: "gnp", N: 64, Protocol: "push", Timing: "sync",
			Dynamic: DynamicResample, PerturbRate: 0.5, Trials: 1}},
		{"perturb without rate", CellSpec{Family: "gnp", N: 64, Protocol: "push", Timing: "sync",
			Dynamic: DynamicPerturb, Trials: 1}},
		{"perturb rate > 1", CellSpec{Family: "gnp", N: 64, Protocol: "push", Timing: "sync",
			Dynamic: DynamicPerturb, PerturbRate: 1.5, Trials: 1}},
		{"negative period", CellSpec{Family: "gnp", N: 64, Protocol: "push", Timing: "sync",
			Dynamic: DynamicResample, DynamicPeriod: -1, Trials: 1}},
		{"negative churn node", CellSpec{Family: "gnp", N: 64, Protocol: "push", Timing: "sync",
			Churn: []ChurnSpec{{Node: -1, Time: 1, Op: ChurnOpLeave}}, Trials: 1}},
		{"negative churn time", CellSpec{Family: "gnp", N: 64, Protocol: "push", Timing: "sync",
			Churn: []ChurnSpec{{Node: 1, Time: -1, Op: ChurnOpLeave}}, Trials: 1}},
		{"unknown churn op", CellSpec{Family: "gnp", N: 64, Protocol: "push", Timing: "sync",
			Churn: []ChurnSpec{{Node: 1, Time: 1, Op: "restart"}}, Trials: 1}},
		{"drop_state on leave", CellSpec{Family: "gnp", N: 64, Protocol: "push", Timing: "sync",
			Churn: []ChurnSpec{{Node: 1, Time: 1, Op: ChurnOpLeave, DropState: true}}, Trials: 1}},
		{"dynamic ppx", CellSpec{Family: "gnp", N: 64, Protocol: "push-pull", Timing: "sync",
			Variant: "ppx", Dynamic: DynamicResample, Trials: 1}},
		{"dynamic quasirandom", CellSpec{Family: "gnp", N: 64, Protocol: "push-pull", Timing: "sync",
			Quasirandom: true, Dynamic: DynamicResample, Trials: 1}},
		{"churn per-edge-clocks", CellSpec{Family: "gnp", N: 64, Protocol: "push-pull", Timing: "async",
			View: "per-edge-clocks", Churn: []ChurnSpec{{Node: 1, Time: 1, Op: ChurnOpLeave}}, Trials: 1}},
	}
	for _, tc := range bad {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
