package service

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rumor/internal/core"
	"rumor/internal/graph"
	"rumor/internal/harness"
)

// fuzzSpec derives a CellSpec from raw fuzz inputs. It intentionally
// produces invalid specs too: Key() must be total and stable over the
// whole spec space, not just the validated subset, because a persisted
// record's key is trusted long after validation happened.
func fuzzSpec(kindSel, protoSel, timingSel, viewSel, variantSel uint8, family string,
	n, trials, source int, qr bool, loss float64, gseed, tseed uint64,
	extras, crashes, covs []byte, param float64,
	dynSel uint8, dynPeriod, perturbRate float64, churn []byte) CellSpec {
	kinds := []string{"", KindTime}
	protos := []string{"push", "pull", "push-pull", ""}
	timings := []string{TimingSync, TimingAsync, ""}
	views := []string{"", "global-clock", "per-node-clocks", "per-edge-clocks"}
	variants := []string{"", "ppx", "ppy"}
	spec := CellSpec{
		Kind: kinds[int(kindSel)%len(kinds)],
		// Coerce to the UTF-8 domain exactly the way the JSON wire
		// would: a spec can only reach the service as JSON, and
		// encoding/json replaces invalid bytes with U+FFFD. (Found by
		// this fuzzer: a raw 0xeb family byte round-trips to a
		// different key; see the checked-in corpus.)
		Family:      strings.ToValidUTF8(family, "�"),
		N:           n,
		Protocol:    protos[int(protoSel)%len(protos)],
		Timing:      timings[int(timingSel)%len(timings)],
		View:        views[int(viewSel)%len(views)],
		Variant:     variants[int(variantSel)%len(variants)],
		Quasirandom: qr,
		LossProb:    loss,
		Trials:      trials,
		GraphSeed:   gseed,
		TrialSeed:   tseed,
		Source:      source,
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		spec.LossProb = 0 // non-finite floats do not survive JSON
	}
	for _, b := range extras {
		spec.ExtraSources = append(spec.ExtraSources, int(b))
	}
	for i := 0; i+1 < len(crashes); i += 2 {
		spec.Crashes = append(spec.Crashes,
			CrashSpec{Node: int(crashes[i]), Time: float64(crashes[i+1]) / 16})
	}
	for _, b := range covs {
		spec.CoverageFracs = append(spec.CoverageFracs, (float64(b)+1)/256)
	}
	if !math.IsNaN(param) && !math.IsInf(param, 0) {
		spec.Params = map[string]float64{"p": param}
	}
	dyns := []string{"", DynamicResample, DynamicPerturb}
	spec.Dynamic = dyns[int(dynSel)%len(dyns)]
	if !math.IsNaN(dynPeriod) && !math.IsInf(dynPeriod, 0) {
		spec.DynamicPeriod = dynPeriod
	}
	if !math.IsNaN(perturbRate) && !math.IsInf(perturbRate, 0) {
		spec.PerturbRate = perturbRate
	}
	for i := 0; i+2 < len(churn); i += 3 {
		ev := ChurnSpec{Node: int(churn[i]), Time: float64(churn[i+1]) / 16, Op: ChurnOpLeave}
		if churn[i+2]&1 == 1 {
			ev.Op = ChurnOpJoin
			ev.DropState = churn[i+2]&2 == 2
		}
		spec.Churn = append(spec.Churn, ev)
	}
	return spec
}

// FuzzCellSpecKey fuzzes the canonical-key round-trip guarantees the
// persistent store depends on:
//
//  1. decode(encode(spec)) yields the same key — a spec that crossed
//     the JSON wire (jobs API, persisted record) hashes identically to
//     the original, so a cached result is findable from any surface.
//  2. Semantically equivalent rewrites (defaults made explicit,
//     extra-source order and duplicates, the source listed as an extra,
//     names in another case or by alias, -0 for a zero float) keep the
//     key; semantically distinct mutations change the canonical form —
//     equal keys mean equal measurements, so the durable cache can
//     never alias.
func FuzzCellSpecKey(f *testing.F) {
	// Seed corpus: the golden-key specs plus scenario-space corners
	// (static v2 shapes, and the v3 dynamic/churn axes).
	f.Add(uint8(0), uint8(2), uint8(0), uint8(0), uint8(0), "hypercube",
		1024, 100, 0, false, 0.0, uint64(1), uint64(2), []byte(nil), []byte(nil), []byte(nil), math.NaN(),
		uint8(0), 0.0, 0.0, []byte(nil))
	f.Add(uint8(0), uint8(2), uint8(1), uint8(3), uint8(0), "star",
		512, 50, 1, false, 0.0, uint64(3), uint64(4), []byte(nil), []byte(nil), []byte(nil), math.NaN(),
		uint8(0), 0.0, 0.0, []byte(nil))
	f.Add(uint8(0), uint8(2), uint8(0), uint8(0), uint8(1), "complete",
		256, 80, 0, true, 0.0, uint64(5), uint64(6), []byte(nil), []byte(nil), []byte(nil), math.NaN(),
		uint8(0), 0.0, 0.0, []byte(nil))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), "gnp",
		128, 10, 0, false, 0.25, uint64(7), uint64(8), []byte{5, 3, 3}, []byte{2, 24, 1, 8}, []byte(nil), math.NaN(),
		uint8(0), 0.0, 0.0, []byte(nil))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(2), uint8(0), "torus",
		900, 20, 0, false, 0.0, uint64(9), uint64(10), []byte(nil), []byte(nil), []byte{63, 191}, 32.0,
		uint8(0), 0.0, 0.0, []byte(nil))
	f.Add(uint8(2), uint8(3), uint8(2), uint8(1), uint8(2), "",
		0, 1, 0, false, 0.5, uint64(0), uint64(0), []byte{0}, []byte{0, 0}, []byte{255}, -1.5,
		uint8(0), 0.0, 0.0, []byte(nil))
	f.Add(uint8(0), uint8(2), uint8(0), uint8(0), uint8(0), "gnp-threshold",
		256, 100, 0, false, 0.0, uint64(1), uint64(2), []byte(nil), []byte(nil), []byte(nil), math.NaN(),
		uint8(1), 0.0, 0.0, []byte(nil))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), "gnp",
		128, 20, 0, false, 0.0, uint64(5), uint64(6), []byte(nil), []byte(nil), []byte(nil), math.NaN(),
		uint8(2), 3.0, 0.2, []byte{5, 32, 0, 5, 128, 3})
	f.Add(uint8(0), uint8(2), uint8(1), uint8(0), uint8(0), "hypercube",
		64, 10, 0, false, 0.0, uint64(7), uint64(8), []byte(nil), []byte(nil), []byte(nil), math.NaN(),
		uint8(0), 0.0, 0.0, []byte{5, 32, 0, 5, 128, 1, 6, 32, 2})

	f.Fuzz(func(t *testing.T, kindSel, protoSel, timingSel, viewSel, variantSel uint8,
		family string, n, trials, source int, qr bool, loss float64,
		gseed, tseed uint64, extras, crashes, covs []byte, param float64,
		dynSel uint8, dynPeriod, perturbRate float64, churn []byte) {
		spec := fuzzSpec(kindSel, protoSel, timingSel, viewSel, variantSel, family,
			n, trials, source, qr, loss, gseed, tseed, extras, crashes, covs, param,
			dynSel, dynPeriod, perturbRate, churn)
		key := spec.Key()
		canon := spec.canonical()
		if spec.Key() != key || spec.canonical() != canon {
			t.Fatal("Key/canonical not deterministic")
		}

		// (1) JSON round trip preserves the key and the full canonical
		// form, not just the 128-bit hash.
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var decoded CellSpec
		if err := json.Unmarshal(wire, &decoded); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if decoded.canonical() != canon {
			t.Errorf("JSON round trip changed the canonical form:\n in: %s\nout: %s", canon, decoded.canonical())
		}
		if decoded.Key() != key {
			t.Errorf("JSON round trip changed the key: %s -> %s", key, decoded.Key())
		}
		if !reflect.DeepEqual(spec, decoded) && decoded.canonical() == canon {
			t.Error("decoded spec differs semantically yet shares the key")
		}

		// (2a) Documented normalizations are key-preserving.
		explicit := spec
		if explicit.Kind == "" {
			explicit.Kind = KindTime
		}
		if explicit.Timing == TimingAsync && explicit.View == "" {
			explicit.View = "global-clock"
		}
		if len(explicit.CoverageFracs) == 0 && explicit.kind() == KindTime {
			explicit.CoverageFracs = []float64{0.5, 0.9, 1.0}
		}
		if explicit.canonical() != canon {
			t.Errorf("explicit defaults changed the canonical form:\n in: %s\nout: %s", canon, explicit.canonical())
		}
		if len(spec.ExtraSources) > 1 {
			reversed := spec
			reversed.ExtraSources = append([]int(nil), spec.ExtraSources...)
			for i, j := 0, len(reversed.ExtraSources)-1; i < j; i, j = i+1, j-1 {
				reversed.ExtraSources[i], reversed.ExtraSources[j] = reversed.ExtraSources[j], reversed.ExtraSources[i]
			}
			if reversed.canonical() != canon {
				t.Error("extra-source order changed the canonical form")
			}
			dup := spec
			dup.ExtraSources = append(append([]int(nil), spec.ExtraSources...), spec.ExtraSources[0])
			if dup.canonical() != canon {
				t.Error("duplicate extra source changed the canonical form")
			}
		}

		negZero := func(f float64) float64 {
			if f == 0 {
				return math.Copysign(0, -1)
			}
			return f
		}
		respellings := []struct {
			name    string
			respell func(*CellSpec)
		}{
			{"upper-case names", func(c *CellSpec) {
				c.Protocol, c.View, c.Variant = strings.ToUpper(c.Protocol), strings.ToUpper(c.View), strings.ToUpper(c.Variant)
			}},
			{"protocol alias", func(c *CellSpec) {
				if c.Protocol == "push-pull" {
					c.Protocol = []string{"pp", "PushPull"}[c.TrialSeed%2]
				}
			}},
			{"source as an extra source", func(c *CellSpec) {
				c.ExtraSources = append(slices.Clone(c.ExtraSources), c.Source)
			}},
			{"-0 for zero floats", func(c *CellSpec) {
				c.LossProb, c.DynamicPeriod, c.PerturbRate = negZero(c.LossProb), negZero(c.DynamicPeriod), negZero(c.PerturbRate)
				c.Crashes, c.Churn = slices.Clone(c.Crashes), slices.Clone(c.Churn)
				for i := range c.Crashes {
					c.Crashes[i].Time = negZero(c.Crashes[i].Time)
				}
				for i := range c.Churn {
					c.Churn[i].Time = negZero(c.Churn[i].Time)
				}
				c.Params = maps.Clone(c.Params)
				for k, v := range c.Params {
					c.Params[k] = negZero(v)
				}
			}},
		}
		for _, r := range respellings {
			respelled := spec
			r.respell(&respelled)
			if respelled.canonical() != canon {
				t.Errorf("%s changed the canonical form:\n in: %s\nout: %s", r.name, canon, respelled.canonical())
			}
		}

		// (2a-v3) The version prefix is per spec: dynamic scenarios render
		// the v3 extension, static crash cells of the per-node and
		// per-edge async views the v4 form, everything else the exact
		// original v2 form — the append-only guarantee that lets older
		// caches replay.
		wantPrefix := CellKeyVersionV2 + "|"
		switch {
		case spec.dynamicScenario():
			wantPrefix = CellKeyVersionV3 + "|"
		case spec.kind() == KindTime && spec.Timing == TimingAsync && len(spec.Crashes) > 0 &&
			(spec.View == "per-node-clocks" || spec.View == "per-edge-clocks"):
			wantPrefix = CellKeyVersion + "|"
		}
		if !strings.HasPrefix(canon, wantPrefix) {
			t.Errorf("canonical form %q does not start with %q", canon, wantPrefix)
		}
		if spec.Dynamic != "" && spec.DynamicPeriod == 0 {
			normalized := spec
			normalized.DynamicPeriod = 1
			if normalized.canonical() != canon {
				t.Error("explicit default dynamic period changed the canonical form")
			}
		}

		// (2b) Semantically distinct mutations must change the
		// canonical form — one probe per scenario axis.
		distinct := []struct {
			name   string
			mutate func(*CellSpec)
		}{
			{"trials", func(c *CellSpec) { c.Trials++ }},
			{"n", func(c *CellSpec) { c.N++ }},
			{"graph seed", func(c *CellSpec) { c.GraphSeed++ }},
			{"trial seed", func(c *CellSpec) { c.TrialSeed++ }},
			{"source", func(c *CellSpec) { c.Source++ }},
			{"quasirandom", func(c *CellSpec) { c.Quasirandom = !c.Quasirandom }},
			{"loss", func(c *CellSpec) {
				if c.LossProb == 0.25 {
					c.LossProb = 0.75
				} else {
					c.LossProb = 0.25
				}
			}},
			{"new extra source", func(c *CellSpec) {
				next := c.Source + 1 // the source itself adds no source
				for _, s := range c.ExtraSources {
					next = max(next, s+1)
				}
				c.ExtraSources = append(slices.Clone(c.ExtraSources), next)
			}},
			{"new crash", func(c *CellSpec) {
				c.Crashes = append(append([]CrashSpec(nil), c.Crashes...), CrashSpec{Node: 1 << 20, Time: 1e9})
			}},
			{"family", func(c *CellSpec) { c.Family += "x" }},
			{"dynamic mode", func(c *CellSpec) {
				if c.Dynamic == DynamicResample {
					c.Dynamic = DynamicPerturb
				} else {
					c.Dynamic = DynamicResample
				}
			}},
			// Negation (not +1) so enormous fuzzed floats still change
			// the rendering.
			{"dynamic period", func(c *CellSpec) {
				if p := c.effectiveDynamicPeriod(); p != 0 {
					c.DynamicPeriod = -p
				} else {
					c.DynamicPeriod = 1
				}
			}},
			{"perturb rate", func(c *CellSpec) {
				if c.PerturbRate != 0 {
					c.PerturbRate = -c.PerturbRate
				} else {
					c.PerturbRate = 1
				}
			}},
			{"new churn event", func(c *CellSpec) {
				c.Churn = append(append([]ChurnSpec(nil), c.Churn...),
					ChurnSpec{Node: 1 << 20, Time: 1e9, Op: ChurnOpJoin, DropState: true})
			}},
		}
		for _, m := range distinct {
			mutated := spec
			m.mutate(&mutated)
			if mutated.canonical() == canon {
				t.Errorf("mutating %s did not change the canonical form %q", m.name, canon)
			}
		}
	})
}

// FuzzValidCellRuns pins the contract between validation and the
// engines, in both directions:
//
//  1. Every time cell Validate accepts runs through Executor.Run; the
//     only failure allowed is a node the built graph does not have (a
//     source, crash or churn node out of range), which only the built
//     graph's n can decide.
//  2. Every scenario core.NewTrial accepts on a static 16-node graph is
//     a cell Validate accepts: validation refuses nothing the engines
//     can run.
//
// The seed corpus is selectorSweep.
func FuzzValidCellRuns(f *testing.F) {
	// A method value, because vet counts a spread slice as one value;
	// f.Fuzz still checks every entry against the target's parameters.
	add := f.Add
	for _, args := range selectorSweep() {
		add(args...)
	}
	exec := &Executor{TrialWorkers: 1}
	static := graph.NewStatic(mustComplete(f, 16))
	f.Fuzz(func(t *testing.T, kindSel, protoSel, timingSel, viewSel, variantSel uint8,
		family string, n, trials, source int, qr bool, loss float64,
		gseed, tseed uint64, extras, crashes, covs []byte, param float64,
		dynSel uint8, dynPeriod, perturbRate float64, churn []byte) {
		spec := runnable(fuzzSpec(kindSel, protoSel, timingSel, viewSel, variantSel, family,
			n, trials, source, qr, loss, gseed, tseed, extras, crashes, covs, param,
			dynSel, dynPeriod, perturbRate, churn))

		if spec.Validate() == nil {
			_, _, err := exec.Run(context.Background(), 0, spec)
			if err != nil && !nodeRangeError(err) {
				t.Errorf("valid cell %s failed: %v", spec.canonical(), err)
			}
		}

		if spec.Dynamic != "" || spec.DynamicPeriod != 0 || spec.PerturbRate != 0 {
			return // core's image below is of a static graph
		}
		scenario := spec
		scenario.Params, scenario.CoverageFracs = nil, nil // no core counterpart
		if ok, err := newTrialOf(scenario, static); ok && err == nil {
			if err := scenario.Validate(); err != nil {
				t.Errorf("core runs %s, Validate refuses it: %v", scenario.canonical(), err)
			}
		}
	})
}

// selectorSweep is a deterministic sweep of fuzzSpec's selector space,
// as fuzzSpec's arguments: every kind, timing, protocol, view, variant,
// quasirandom and dynamic selector crossed with the empty, crash, churn
// and extra-source schedules, on n = 16 with two trials.
func selectorSweep() [][]any {
	schedules := []struct{ extras, crashes, churn []byte }{
		{},
		{crashes: []byte{3, 16}},           // node 3 crashes at time 1
		{churn: []byte{2, 8, 0, 2, 32, 3}}, // node 2 leaves at 1/2, rejoins without its rumor at 2
		{extras: []byte{5}},
	}
	families := runnableFamilies()
	var sweep [][]any
	seed := uint64(0)
	for kind := range 2 {
		for timing := range 3 {
			for proto := range 4 {
				for view := range 4 {
					for variant := range 3 {
						for _, qr := range []bool{false, true} {
							for dyn := range 3 {
								rate := 0.0
								if dyn == 2 {
									rate = 0.5
								}
								for _, s := range schedules {
									seed++
									sweep = append(sweep, []any{uint8(kind), uint8(proto), uint8(timing), uint8(view), uint8(variant),
										families[seed%uint64(len(families))], 16, 2, 0, qr, 0.0, seed, seed,
										s.extras, s.crashes, []byte(nil), math.NaN(), uint8(dyn), 0.0, rate, s.churn})
								}
							}
						}
					}
				}
			}
		}
	}
	return sweep
}

// runnableFamilies lists the standard families whose every instance is
// connected, so a static cell on one completes.
func runnableFamilies() []string {
	var names []string
	for _, fam := range harness.StandardFamilies() {
		if !fam.MaybeDisconnected {
			names = append(names, fam.Name)
		}
	}
	return names
}

// runnable clamps a fuzzed spec to a cell the fuzz loop can afford to
// run: a family from runnableFamilies, 9 <= n <= 16, one or two trials,
// loss at most 1/2 and an epoch of at least 1/4 (more extreme values
// exercise only the trial budget and the epoch count). At n = 8 a
// random 5-regular graph fails to build for about 5 % of seeds.
func runnable(spec CellSpec) CellSpec {
	families := runnableFamilies()
	if !slices.Contains(families, spec.Family) {
		spec.Family = families[len(spec.Family)%len(families)]
	}
	spec.N = 9 + int(uint(spec.N)%8)
	spec.Trials = 1 + int(uint(spec.Trials)%2)
	spec.LossProb = min(spec.LossProb, 0.5)
	if spec.DynamicPeriod > 0 {
		spec.DynamicPeriod = max(spec.DynamicPeriod, 0.25)
	}
	return spec
}

// nodeRangeError reports whether err is the one failure a valid cell may
// have at run time: a bad spec naming a node outside the built graph.
func nodeRangeError(err error) bool {
	return errors.Is(err, ErrBadSpec) && (errors.Is(err, core.ErrBadSource) ||
		(errors.Is(err, core.ErrBadCrash) || errors.Is(err, core.ErrBadChurn)) && strings.Contains(err.Error(), "out of range"))
}

// newTrialOf compiles spec's scenario fields straight into core.NewTrial
// on topo, without the service: ok is false when the spec has no core
// image (an unparsable name, an unknown timing, a view on a sync cell).
func newTrialOf(spec CellSpec, topo graph.Provider) (ok bool, err error) {
	proto, err1 := ParseProtocol(spec.Protocol)
	view, err2 := ParseView(spec.View)
	variant, err3 := ParseVariant(spec.Variant)
	if err1 != nil || err2 != nil || err3 != nil {
		return false, nil
	}
	var extra []graph.NodeID
	for _, s := range spec.ExtraSources {
		extra = append(extra, graph.NodeID(s))
	}
	var crashes []core.Crash
	for _, c := range spec.Crashes {
		crashes = append(crashes, core.Crash{Node: graph.NodeID(c.Node), Time: c.Time})
	}
	var churn []core.ChurnEvent
	for _, ev := range spec.Churn {
		op := core.ChurnLeave
		if ev.Op == ChurnOpJoin {
			op = core.ChurnJoin
		}
		churn = append(churn, core.ChurnEvent{Node: graph.NodeID(ev.Node), Time: ev.Time, Op: op, DropState: ev.DropState})
	}
	src, prob := graph.NodeID(spec.Source), 1-spec.LossProb
	switch {
	case spec.Timing == TimingSync && spec.View == "":
		_, err = core.NewTrial(topo, src, core.SyncConfig{Protocol: proto, TransmitProb: prob,
			ExtraSources: extra, Crashes: crashes, Churn: churn}, variant, spec.Quasirandom)
	case spec.Timing == TimingAsync:
		_, err = core.NewTrial(topo, src, core.AsyncConfig{Protocol: proto, View: view, TransmitProb: prob,
			ExtraSources: extra, Crashes: crashes, Churn: churn}, variant, spec.Quasirandom)
	default:
		return false, nil
	}
	return true, err
}

func mustComplete(tb testing.TB, n int) *graph.Graph {
	tb.Helper()
	g, err := graph.Complete(n)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}
