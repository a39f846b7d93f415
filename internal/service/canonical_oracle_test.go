package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// canonicalFmt is the fmt-based rendering CellSpec.canonical replaced,
// kept verbatim as the oracle: the appender form must produce the same
// bytes for every spec, or persisted cache keys would move.
func canonicalFmt(c CellSpec) string {
	var b strings.Builder
	b.WriteString(c.keyVersion())
	b.WriteString("|kind=")
	b.WriteString(c.kind())
	fmt.Fprintf(&b, "|family=%s|n=%d|protocol=%s|timing=%s|view=%s|variant=%s",
		c.Family, c.N, c.Protocol, c.Timing, c.effectiveView(), c.Variant)
	fmt.Fprintf(&b, "|qr=%t|loss=%s", c.Quasirandom, fmtFloat(c.LossProb))
	fmt.Fprintf(&b, "|trials=%d|gseed=%d|tseed=%d|source=%d",
		c.Trials, c.GraphSeed, c.TrialSeed, c.Source)

	b.WriteString("|extra=")
	extras := append([]int(nil), c.ExtraSources...)
	sort.Ints(extras)
	for i, v := range extras {
		if i > 0 && v == extras[i-1] {
			continue // duplicates do not change the process
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}

	b.WriteString("|crash=")
	crashes := append([]CrashSpec(nil), c.Crashes...)
	sort.Slice(crashes, func(i, j int) bool {
		if crashes[i].Time != crashes[j].Time {
			return crashes[i].Time < crashes[j].Time
		}
		return crashes[i].Node < crashes[j].Node
	})
	for i, cr := range crashes {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%d@%s", cr.Node, fmtFloat(cr.Time))
	}

	b.WriteString("|cov=")
	for i, f := range c.effectiveCoverage() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(fmtFloat(f))
	}

	b.WriteString("|params=")
	keys := make([]string, 0, len(c.Params))
	for k := range c.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s", k, fmtFloat(c.Params[k]))
	}

	if c.dynamicScenario() {
		fmt.Fprintf(&b, "|dyn=%s|dynperiod=%s|dynrate=%s",
			c.Dynamic, fmtFloat(c.effectiveDynamicPeriod()), fmtFloat(c.PerturbRate))
		b.WriteString("|churn=")
		churn := append([]ChurnSpec(nil), c.Churn...)
		// Stable by time only: same-time events apply in listed order,
		// so that order is part of the measurement's identity.
		sort.SliceStable(churn, func(i, j int) bool { return churn[i].Time < churn[j].Time })
		for i, ev := range churn {
			if i > 0 {
				b.WriteByte(';')
			}
			op := ev.Op
			if ev.DropState {
				op += "-drop"
			}
			fmt.Fprintf(&b, "%d@%s:%s", ev.Node, fmtFloat(ev.Time), op)
		}
	}

	return b.String()
}

// hashCellsFmt is the fmt-based job digest hashCells replaced.
func hashCellsFmt(priority int, cells []CellSpec) string {
	h := sha256.New()
	fmt.Fprintf(h, "job|%s|priority=%d", CellKeyVersion, priority)
	for _, c := range cells {
		fmt.Fprintf(h, "|%s", canonicalFmt(c))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// checkAgainstOracle fails t unless the cell's canonical form and key
// are the oracle's.
func checkAgainstOracle(t *testing.T, spec CellSpec) {
	t.Helper()
	want := canonicalFmt(spec)
	if got := spec.canonical(); got != want {
		t.Fatalf("canonical form differs from the fmt oracle:\n got: %s\nwant: %s", got, want)
	}
	sum := sha256.Sum256([]byte(want))
	if got, want := spec.Key(), hex.EncodeToString(sum[:16]); got != want {
		t.Fatalf("Key %s, oracle %s, for %s", got, want, spec.canonical())
	}
}

// TestCanonicalMatchesFmtOracle: every cell of the selector sweep (each
// kind, timing, protocol, view, variant, quasirandom and dynamic
// selector crossed with the empty, crash, churn and extra-source
// schedules) renders and hashes as the fmt oracle does, alone and as a
// job.
func TestCanonicalMatchesFmtOracle(t *testing.T) {
	cells := SweepCells()
	for _, spec := range cells {
		checkAgainstOracle(t, spec)
	}
	for _, priority := range []int{0, 1, -3} {
		if got, want := hashCells(priority, cells), hashCellsFmt(priority, cells); got != want {
			t.Errorf("priority %d: job hash %s, oracle %s", priority, got, want)
		}
	}
	if got, want := hashCells(0, nil), hashCellsFmt(0, nil); got != want {
		t.Errorf("empty job: hash %s, oracle %s", got, want)
	}
}

// FuzzCanonicalMatchesFmtOracle extends the oracle check past the sweep:
// fuzzSpec's scenario space (crashes, churn with -drop joins and
// same-time events, duplicate extra sources, params) plus a raw time
// on the first crash and churn event and a second param, so float
// renderings such as -0, 1e-300, 0.1+0.2 and NaN reach every field.
func FuzzCanonicalMatchesFmtOracle(f *testing.F) {
	// A method value, because vet counts a spread slice as one value.
	add := f.Add
	floats := []float64{math.Copysign(0, -1), 1e-300, 0.1 + 0.2, 5e-324, 1e21, 123456789.125, math.NaN(), math.Inf(1)}
	for i, args := range selectorSweep() {
		if i%16 != 0 {
			continue
		}
		x := floats[(i/16)%len(floats)]
		args[10], args[16], args[18], args[19] = x, x, x, x // loss, param, dyn period, perturb rate
		add(append(args, x, "a")...)
	}
	f.Add(uint8(0), uint8(2), uint8(1), uint8(2), uint8(0), "gnp",
		64, 3, 1, false, 0.1+0.2, uint64(1<<63), uint64(7), []byte{9, 3, 9, 0, 3}, []byte{4, 8, 2, 8, 4, 0},
		[]byte{0, 255}, 1e-300, uint8(2), math.Copysign(0, -1), 0.5, []byte{1, 8, 3, 2, 8, 0, 1, 8, 1}, 0.1+0.2, "zz")
	f.Fuzz(func(t *testing.T, kindSel, protoSel, timingSel, viewSel, variantSel uint8,
		family string, n, trials, source int, qr bool, loss float64,
		gseed, tseed uint64, extras, crashes, covs []byte, param float64,
		dynSel uint8, dynPeriod, perturbRate float64, churn []byte,
		rawTime float64, param2 string) {
		spec := fuzzSpec(kindSel, protoSel, timingSel, viewSel, variantSel, family,
			n, trials, source, qr, loss, gseed, tseed, extras, crashes, covs, param,
			dynSel, dynPeriod, perturbRate, churn)
		spec.LossProb = loss
		if len(spec.Crashes) > 0 {
			spec.Crashes[0].Time = rawTime
		}
		if len(spec.Churn) > 0 {
			spec.Churn[0].Time = rawTime
		}
		if spec.Params == nil {
			spec.Params = map[string]float64{}
		}
		spec.Params[param2] = rawTime
		checkAgainstOracle(t, spec)
		if got, want := hashCells(n, []CellSpec{spec, spec}), hashCellsFmt(n, []CellSpec{spec, spec}); got != want {
			t.Fatalf("job hash %s, oracle %s", got, want)
		}
	})
}

// benchJobCells is a 32-cell job shaped like the service workloads':
// n=64 cells over four families, three protocols and both timings.
func benchJobCells() []CellSpec {
	families := []string{"complete", "hypercube", "star", "cycle"}
	protocols := []string{"push", "pull", "push-pull"}
	timings := []string{TimingSync, TimingAsync}
	cells := make([]CellSpec, 32)
	for k := range cells {
		cells[k] = CellSpec{
			Family: families[k%4], N: 64, Protocol: protocols[(k/4)%3], Timing: timings[(k/12)%2],
			Trials: 2, GraphSeed: 1, TrialSeed: 0x9e3779b97f4a7c15 * uint64(k+1),
		}
	}
	return cells
}

// BenchmarkCellKey is one cell's cache key, as the executor computes it
// for every cell it runs or serves from cache.
func BenchmarkCellKey(b *testing.B) {
	cell := benchJobCells()[13]
	b.ReportAllocs()
	for b.Loop() {
		_ = cell.Key()
	}
}

// BenchmarkJobSpecHash is a 32-cell job's digest, as the SDK computes it
// for the idempotency key and the server again on submit.
func BenchmarkJobSpecHash(b *testing.B) {
	spec := JobSpec{CellList: benchJobCells()}
	b.ReportAllocs()
	for b.Loop() {
		_ = spec.Hash()
	}
}
