package service

import (
	"context"
	"errors"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"rumor/internal/api"
	"rumor/internal/core"
)

// TestCellKeyGoldenV2 pins the v2 cache keys of representative specs.
// If this test fails, the canonical rendering changed: either revert
// the change, or bump the key version ("v2" → "v3") AND update these
// constants — silently changing keys would invalidate or, worse, alias
// persisted caches.
func TestCellKeyGoldenV2(t *testing.T) {
	cases := []struct {
		name string
		spec CellSpec
		want string
	}{
		{
			name: "sync baseline (v1-era shape)",
			spec: CellSpec{Family: "hypercube", N: 1024, Protocol: "push-pull", Timing: "sync",
				Trials: 100, GraphSeed: 1, TrialSeed: 2, Source: 0},
			want: "a7a395e9851ee50f5bdcc27d3970e01b",
		},
		{
			name: "async baseline",
			spec: CellSpec{Family: "hypercube", N: 1024, Protocol: "push-pull", Timing: "async",
				Trials: 100, GraphSeed: 1, TrialSeed: 2, Source: 0},
			want: "388c6e4d6ba4a81a2e313fd66068f2a4",
		},
		{
			name: "per-edge view",
			spec: CellSpec{Family: "star", N: 512, Protocol: "push-pull", Timing: "async",
				View: "per-edge-clocks", Trials: 50, GraphSeed: 3, TrialSeed: 4, Source: 1},
			want: "2331e6ad45929a14a948e68a09131168",
		},
		{
			name: "ppx variant",
			spec: CellSpec{Family: "complete", N: 256, Protocol: "push-pull", Timing: "sync",
				Variant: "ppx", Trials: 80, GraphSeed: 5, TrialSeed: 6},
			want: "8812d239e81cc131846f40ff61d75b92",
		},
		{
			name: "quasirandom",
			spec: CellSpec{Family: "complete", N: 256, Protocol: "push-pull", Timing: "sync",
				Quasirandom: true, Trials: 80, GraphSeed: 5, TrialSeed: 6},
			want: "117be7cb64caaed8049975e311835d38",
		},
		{
			name: "loss + multi-source + crashes",
			spec: CellSpec{Family: "gnp", N: 128, Protocol: "push", Timing: "sync", LossProb: 0.25,
				Trials: 10, GraphSeed: 7, TrialSeed: 8, ExtraSources: []int{5, 3, 3},
				Crashes: []CrashSpec{{Node: 2, Time: 1.5}, {Node: 1, Time: 0.5}}},
			want: "f9fdd8ac05855bdb2f46dfa20b6bb955",
		},
		{
			name: "custom coverage",
			spec: CellSpec{Family: "torus", N: 900, Protocol: "pull", Timing: "async",
				CoverageFracs: []float64{0.25, 0.75}, Trials: 20, GraphSeed: 9, TrialSeed: 10},
			want: "4d133cb38ac090eb51907232790784c5",
		},
	}
	for _, tc := range cases {
		if got := tc.spec.Key(); got != tc.want {
			t.Errorf("%s: key = %s, want %s (canonical form changed — bump the version)", tc.name, got, tc.want)
		}
	}
}

// TestCellKeyNormalization: equivalent specs must alias to one key;
// distinct measurements must not.
func TestCellKeyNormalization(t *testing.T) {
	base := CellSpec{Family: "hypercube", N: 1024, Protocol: "push-pull", Timing: "async",
		Trials: 100, GraphSeed: 1, TrialSeed: 2}

	explicitDefaults := base
	explicitDefaults.Kind = KindTime
	explicitDefaults.View = "global-clock"
	explicitDefaults.CoverageFracs = []float64{0.5, 0.9, 1.0}
	if base.Key() != explicitDefaults.Key() {
		t.Error("explicit defaults (kind, view, coverage) changed the key")
	}

	reorderedExtras := base
	reorderedExtras.ExtraSources = []int{7, 3, 3, 5}
	sortedExtras := base
	sortedExtras.ExtraSources = []int{3, 5, 7}
	if reorderedExtras.Key() != sortedExtras.Key() {
		t.Error("extra-source order/duplicates changed the key")
	}

	reorderedCrashes := base
	reorderedCrashes.Crashes = []CrashSpec{{Node: 2, Time: 3}, {Node: 1, Time: 1}}
	sortedCrashes := base
	sortedCrashes.Crashes = []CrashSpec{{Node: 1, Time: 1}, {Node: 2, Time: 3}}
	if reorderedCrashes.Key() != sortedCrashes.Key() {
		t.Error("crash schedule order changed the key")
	}

	// Distinct measurements must get distinct keys.
	distinct := []CellSpec{base}
	perNode := base
	perNode.View = "per-node-clocks"
	lossy := base
	lossy.LossProb = 0.1
	multi := base
	multi.ExtraSources = []int{1}
	crashed := base
	crashed.Crashes = []CrashSpec{{Node: 1, Time: 1}}
	coverage := base
	coverage.CoverageFracs = []float64{0.5}
	distinct = append(distinct, perNode, lossy, multi, crashed, coverage)
	seen := map[string]int{}
	for i, s := range distinct {
		if prev, dup := seen[s.Key()]; dup {
			t.Errorf("specs %d and %d share a key", prev, i)
		}
		seen[s.Key()] = i
	}
}

// TestValidateSizeLimits: n and trials are admitted up to the api
// limits and refused one past them, as ErrBadSpec marked too-large (so
// HTTP answers cell_too_large) — on a cell and on every size of a grid.
func TestValidateSizeLimits(t *testing.T) {
	// A star's adjacency is 16n bytes: only n and trials can refuse it.
	cell := func(n, trials int) CellSpec {
		return CellSpec{Family: "star", N: n, Protocol: "push", Timing: TimingSync, Trials: trials}
	}
	grid := func(trials int, sizes ...int) JobSpec {
		return JobSpec{Families: []string{"star"}, Sizes: sizes, Protocols: []string{"push"}, Timings: []string{TimingSync}, Trials: trials}
	}
	complete := func(n int) CellSpec {
		return CellSpec{Family: "complete", N: n, Protocol: "push", Timing: TimingSync, Trials: 1}
	}
	for _, tc := range []struct {
		name     string
		spec     interface{ Validate() error }
		tooLarge bool
	}{
		{"cell at both limits", cell(api.MaxCellNodes, api.MaxCellTrials), false},
		{"cell n over", cell(api.MaxCellNodes+1, 1), true},
		{"cell n = 10^9", cell(1_000_000_000, 1), true},
		{"cell trials over", cell(8, api.MaxCellTrials+1), true},
		{"grid at both limits", grid(api.MaxCellTrials, 8, api.MaxCellNodes), false},
		{"grid second size over", grid(1, 8, api.MaxCellNodes+1), true},
		{"grid trials over", grid(api.MaxCellTrials+1, 8), true},
		{"cell list entry over", JobSpec{CellList: []CellSpec{cell(8, 1), cell(api.MaxCellNodes+1, 1)}}, true},
		// 8(n+1) + 8m bytes of adjacency: complete at n = 46 000 is
		// ~7.9 GiB, at 47 000 ~8.2 GiB, at 10^8 ~3.7e7 GiB.
		{"complete under the byte limit", complete(46_000), false},
		{"complete over the byte limit", complete(47_000), true},
		{"complete at n = 10^8", complete(api.MaxCellNodes), true},
		{"hypercube at n = 10^8 (built at 2^27)", CellSpec{Family: "hypercube", N: api.MaxCellNodes,
			Protocol: "push", Timing: TimingSync, Trials: 1}, true},
		{"torus at n = 10^8", CellSpec{Family: "torus", N: api.MaxCellNodes,
			Protocol: "push", Timing: TimingSync, Trials: 1}, false},
		{"grid family over the byte limit", JobSpec{Families: []string{"star", "complete"}, Sizes: []int{64, 50_000},
			Protocols: []string{"push"}, Timings: []string{TimingSync}, Trials: 1}, true},
	} {
		err := tc.spec.Validate()
		if !tc.tooLarge {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, errCellTooLarge) || !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: err = %v, want ErrBadSpec marked too large", tc.name, err)
		}
		if _, code := ErrorResponse(err); code != api.CodeCellTooLarge {
			t.Errorf("%s: code %q", tc.name, code)
		}
	}
}

func TestCellSpecValidateV2(t *testing.T) {
	good := []CellSpec{
		{Family: "hypercube", N: 64, Protocol: "push-pull", Timing: "async",
			View: "per-node-clocks", Trials: 1},
		{Family: "hypercube", N: 64, Protocol: "push-pull", Timing: "sync",
			Variant: "ppy", Trials: 1},
		{Family: "hypercube", N: 64, Protocol: "push", Timing: "sync",
			Quasirandom: true, LossProb: 0.5, ExtraSources: []int{1, 2}, Trials: 1},
		{Family: "hypercube", N: 64, Protocol: "push", Timing: "async",
			Crashes: []CrashSpec{{Node: 3, Time: 2.5}}, CoverageFracs: []float64{0.5}, Trials: 1},
	}
	for i, spec := range good {
		if err := spec.Validate(); err != nil {
			t.Errorf("good spec %d rejected: %v", i, err)
		}
	}

	bad := []struct {
		name string
		spec CellSpec
	}{
		{"unknown kind", CellSpec{Kind: "no-such-kind", Family: "hypercube", N: 64,
			Protocol: "push", Timing: "sync", Trials: 1}},
		{"unknown view", CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull",
			Timing: "async", View: "warped", Trials: 1}},
		{"view on sync", CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull",
			Timing: "sync", View: "global-clock", Trials: 1}},
		{"unknown variant", CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull",
			Timing: "sync", Variant: "ppz", Trials: 1}},
		{"variant on async", CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull",
			Timing: "async", Variant: "ppx", Trials: 1}},
		{"variant on push", CellSpec{Family: "hypercube", N: 64, Protocol: "push",
			Timing: "sync", Variant: "ppx", Trials: 1}},
		{"variant with crashes", CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull",
			Timing: "sync", Variant: "ppx", Crashes: []CrashSpec{{Node: 1, Time: 1}}, Trials: 1}},
		{"variant with extra sources", CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull",
			Timing: "sync", Variant: "ppy", ExtraSources: []int{3}, Trials: 1}},
		{"quasirandom async", CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull",
			Timing: "async", Quasirandom: true, Trials: 1}},
		{"quasirandom with crashes", CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull",
			Timing: "sync", Quasirandom: true, Crashes: []CrashSpec{{Node: 1, Time: 1}}, Trials: 1}},
		{"loss = 1", CellSpec{Family: "hypercube", N: 64, Protocol: "push",
			Timing: "sync", LossProb: 1, Trials: 1}},
		{"negative loss", CellSpec{Family: "hypercube", N: 64, Protocol: "push",
			Timing: "sync", LossProb: -0.1, Trials: 1}},
		{"negative extra source", CellSpec{Family: "hypercube", N: 64, Protocol: "push",
			Timing: "sync", ExtraSources: []int{-1}, Trials: 1}},
		{"negative crash time", CellSpec{Family: "hypercube", N: 64, Protocol: "push",
			Timing: "sync", Crashes: []CrashSpec{{Node: 1, Time: -1}}, Trials: 1}},
		{"coverage frac 0", CellSpec{Family: "hypercube", N: 64, Protocol: "push",
			Timing: "sync", CoverageFracs: []float64{0}, Trials: 1}},
		{"coverage frac > 1", CellSpec{Family: "hypercube", N: 64, Protocol: "push",
			Timing: "sync", CoverageFracs: []float64{1.5}, Trials: 1}},
		{"params on time cell", CellSpec{Family: "hypercube", N: 64, Protocol: "push",
			Timing: "sync", Params: map[string]float64{"x": 1}, Trials: 1}},
	}
	// A separator inside a param key would make two distinct specs
	// render (and hash) identically — it must be rejected, for any kind.
	for _, key := range []string{"a=1,b", "a,b", "a|b"} {
		bad = append(bad, struct {
			name string
			spec CellSpec
		}{"reserved separator in param key " + key,
			CellSpec{Family: "hypercube", N: 64, Protocol: "push", Timing: "sync",
				Params: map[string]float64{key: 1}, Trials: 1}})
	}
	for _, tc := range bad {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestJobSpecExplicitCells: the jobs API accepts explicit cell lists,
// rejects mixing them with grid axes, and validates each cell.
func TestJobSpecExplicitCells(t *testing.T) {
	cell := CellSpec{Family: "complete", N: 16, Protocol: "push", Timing: "sync", Trials: 2}
	good := JobSpec{CellList: []CellSpec{cell}}
	if err := good.Validate(); err != nil {
		t.Fatalf("explicit job rejected: %v", err)
	}
	if n, ok := good.CellCount(); !ok || n != 1 {
		t.Fatalf("CellCount = %d, %v", n, ok)
	}
	if cells := good.Cells(); len(cells) != 1 || cells[0].Key() != cell.Key() {
		t.Fatal("explicit cells not returned verbatim")
	}

	mixed := JobSpec{Families: []string{"complete"}, CellList: []CellSpec{cell}}
	if err := mixed.Validate(); err == nil {
		t.Error("mixed grid+cells spec accepted")
	}
	badCell := cell
	badCell.Trials = 0
	if err := (JobSpec{CellList: []CellSpec{badCell}}).Validate(); err == nil {
		t.Error("explicit job with invalid cell accepted")
	} else if !strings.Contains(err.Error(), "cell 0") {
		t.Errorf("error does not locate the bad cell: %v", err)
	}
}

func TestRegisterKindErrors(t *testing.T) {
	if err := RegisterKind(CellKind{Name: ""}); err == nil {
		t.Error("empty-name kind accepted")
	}
	if err := RegisterKind(CellKind{Name: "orphan"}); err == nil {
		t.Error("kind without Run accepted")
	}
	if err := RegisterKind(CellKind{Name: KindTime, Run: runTimeCell}); err == nil {
		t.Error("duplicate kind accepted")
	}
	if _, err := KindByName(KindTime); err != nil {
		t.Errorf("the rejected duplicate unregistered %q: %v", KindTime, err)
	}
}

func TestCoverageName(t *testing.T) {
	cases := map[float64]string{0.5: "q50", 0.9: "q90", 0.99: "q99", 1.0: "q100", 0.125: "q12.5"}
	for frac, want := range cases {
		if got := CoverageName(frac); got != want {
			t.Errorf("CoverageName(%v) = %q, want %q", frac, got, want)
		}
	}
}

// TestSpellingsShareOneKey: every spelling of one process that Validate
// accepts — a protocol, view or variant name in any case or by alias, a
// -0 loss or crash time, the source listed again as an extra source —
// hashes to the canonical cell's key and runs to the same times. The
// per-node and per-edge crash cells render the v4 form whatever the
// view's case.
func TestSpellingsShareOneKey(t *testing.T) {
	negZero := math.Copysign(0, -1)
	async := CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull", Timing: TimingAsync,
		Trials: 4, GraphSeed: 1, TrialSeed: 1}
	with := func(base CellSpec, edit func(*CellSpec)) CellSpec {
		base.ExtraSources = slices.Clone(base.ExtraSources)
		base.Crashes = slices.Clone(base.Crashes)
		base.CoverageFracs = slices.Clone(base.CoverageFracs)
		edit(&base)
		return base
	}
	crash := with(async, func(c *CellSpec) { c.Crashes = []CrashSpec{{Node: 3, Time: 0}} })
	perNode := with(async, func(c *CellSpec) {
		c.View, c.Crashes = "per-node-clocks", []CrashSpec{{Node: 3, Time: 0.5}}
	})
	perEdge := with(perNode, func(c *CellSpec) { c.View = "per-edge-clocks" })
	pull := with(async, func(c *CellSpec) { c.Protocol, c.Timing = "pull", TimingSync })
	ppx := with(pull, func(c *CellSpec) { c.Protocol, c.Variant = "push-pull", "ppx" })
	covs := with(async, func(c *CellSpec) { c.CoverageFracs = []float64{0.5, 0.9} })
	crash1 := with(async, func(c *CellSpec) { c.Crashes = []CrashSpec{{Node: 3, Time: 1}} })
	syncCrash1 := with(crash1, func(c *CellSpec) { c.Timing = TimingSync })
	for _, tc := range []struct {
		name             string
		canonical, alias CellSpec
	}{
		{"protocol pp", async, with(async, func(c *CellSpec) { c.Protocol = "pp" })},
		{"protocol pushpull", async, with(async, func(c *CellSpec) { c.Protocol = "pushpull" })},
		{"protocol PUSH-PULL", async, with(async, func(c *CellSpec) { c.Protocol = "PUSH-PULL" })},
		{"protocol PULL", pull, with(pull, func(c *CellSpec) { c.Protocol = "PULL" })},
		{"view GLOBAL-CLOCK", async, with(async, func(c *CellSpec) { c.View = "GLOBAL-CLOCK" })},
		{"variant PPX", ppx, with(ppx, func(c *CellSpec) { c.Variant = "PPX" })},
		{"loss -0", async, with(async, func(c *CellSpec) { c.LossProb = negZero })},
		{"crash at -0", crash, with(crash, func(c *CellSpec) { c.Crashes[0].Time = negZero })},
		{"extra source = source", async, with(async, func(c *CellSpec) { c.ExtraSources = []int{0} })},
		{"PER-NODE-CLOCKS with a crash", perNode, with(perNode, func(c *CellSpec) { c.View = "PER-NODE-CLOCKS" })},
		{"Per-Edge-Clocks with a crash", perEdge, with(perEdge, func(c *CellSpec) { c.View = "Per-Edge-Clocks" })},
		{"coverage unsorted", covs, with(covs, func(c *CellSpec) { c.CoverageFracs = []float64{0.9, 0.5} })},
		{"coverage repeated", covs, with(covs, func(c *CellSpec) { c.CoverageFracs = []float64{0.5, 0.9, 0.5} })},
		{"a node crashed twice", crash1, with(crash1, func(c *CellSpec) { c.Crashes = []CrashSpec{{Node: 3, Time: 1}, {Node: 3, Time: 2}} })},
		{"a node crashed twice, later first", crash1, with(crash1, func(c *CellSpec) { c.Crashes = []CrashSpec{{Node: 3, Time: 2}, {Node: 3, Time: 1}} })},
		{"a sync node crashed twice", syncCrash1, with(syncCrash1, func(c *CellSpec) { c.Crashes = []CrashSpec{{Node: 3, Time: 2}, {Node: 3, Time: 1}} })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.alias.Validate(); err != nil {
				t.Fatalf("the alias does not validate: %v", err)
			}
			if got, want := tc.alias.Key(), tc.canonical.Key(); got != want {
				t.Errorf("key %s, canonical cell's %s:\nalias:     %s\ncanonical: %s",
					got, want, tc.alias.canonical(), tc.canonical.canonical())
			}
			if v4 := tc.canonical.View != "" && len(tc.canonical.Crashes) > 0; v4 && !strings.HasPrefix(tc.alias.canonical(), CellKeyVersion+"|") {
				t.Errorf("canonical form %q does not start with %q", tc.alias.canonical(), CellKeyVersion+"|")
			}
			exec := &Executor{TrialWorkers: 1}
			got, _, err := exec.Run(context.Background(), 0, tc.alias)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := exec.Run(context.Background(), 0, tc.canonical)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Times, want.Times) {
				t.Errorf("times %v, canonical cell's %v", got.Times, want.Times)
			}
			if !maps.Equal(got.Coverage, want.Coverage) {
				t.Errorf("coverage %v, canonical cell's %v", got.Coverage, want.Coverage)
			}
		})
	}
	// 0.5 and 0.5+1e-12 share the milestone name q50 but not its rank:
	// one of the two values would be dropped, so both orders are refused
	// with both fractions named.
	for name, fracs := range map[string][]float64{
		"coverage twins":          {0.5, 0.5 + 1e-12},
		"coverage twins reversed": {0.9, 0.5 + 1e-12, 0.5},
	} {
		t.Run(name, func(t *testing.T) {
			twins := with(async, func(c *CellSpec) { c.CoverageFracs = fracs })
			err := twins.Validate()
			if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), "0.5 and 0.500000000001") {
				t.Errorf("coverage %v: Validate = %v, want %v naming both fractions", fracs, err, ErrBadSpec)
			}
		})
	}
	// A join between two crashes of one node brings it back, so the
	// second crash is live and must stay in the key.
	rejoin := with(crash1, func(c *CellSpec) {
		c.Crashes = append(c.Crashes, CrashSpec{Node: 3, Time: 2})
		c.Churn = []ChurnSpec{{Node: 3, Time: 1.5, Op: ChurnOpJoin}}
	})
	once := with(rejoin, func(c *CellSpec) { c.Crashes = c.Crashes[:1] })
	if rejoin.Key() == once.Key() {
		t.Errorf("a crash after a rejoin was dropped from the key: %s", rejoin.canonical())
	}
	for name, want := range map[string]core.Protocol{
		"push": core.Push, "PULL": core.Pull,
		"push-pull": core.PushPull, "pushpull": core.PushPull, "pp": core.PushPull,
	} {
		if got, err := ParseProtocol(name); err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v", name, got, err)
		}
	}
	for _, name := range []string{"smoke", "push pull", "p"} {
		if _, err := ParseProtocol(name); err == nil {
			t.Errorf("ParseProtocol(%q) accepted", name)
		}
	}
}
