package core

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// scaled is the sample of a specification whose every clock runs at rate
// 1/f: each time it reports is f times as long, the informed counts are
// what they were. The mutant lives on the specification side; no hook in
// the engines is needed to make it.
func (s *asyncSample) scaled(f float64) *asyncSample {
	scale := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x
			if x > 0 { // a coverage fraction never reached stays -1
				out[i] = x * f
			}
		}
		return out
	}
	return &asyncSample{last: scale(s.last), informed: s.informed, q50: scale(s.q50)}
}

// TestAsyncOracleHasTeeth states what TestAsyncEnginesMatchReference
// would catch, at its committed sample size and on its own seed blocks:
// a reference whose clocks are 20 % slow is rejected on every scenario
// row. Clocks 5 % slow (the rows that reject it) and 3, 2 and 1 % slow
// (how many rows do) are logged, not required. The other side of the
// trade: over 100 further seed blocks, dealt round the rows, the
// unmutated pair raises no more false alarms than its 0.001 a quantity
// allows.
func TestAsyncOracleHasTeeth(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	names, cases := referenceScenarios(t)
	// Smaller effects than x1.05 are logged as counts only, from the
	// same samples.
	small := []float64{1.03, 1.02, 1.01}
	smallCaught := make([]int, len(small))
	var caught []string
	for i, name := range names {
		ref, compiled := cases[name].sample(t, i)
		if len(compiled.mismatches(ref.scaled(1.2))) == 0 {
			t.Errorf("%s: a reference with clocks at rate 1/1.2 passes the gate", name)
		}
		if len(compiled.mismatches(ref.scaled(1.05))) > 0 {
			caught = append(caught, name)
		}
		for k, f := range small {
			if len(compiled.mismatches(ref.scaled(f))) > 0 {
				smallCaught[k]++
			}
		}
	}
	t.Logf("clock rate x1.05 is rejected on %d of %d rows: %q", len(caught), len(names), caught)
	for k, f := range small {
		t.Logf("clock rate x%.2f is rejected on %d of %d rows", f, smallCaught[k], len(names))
	}

	const blocks = 100
	var alarms atomic.Int64
	t.Run("unmutated", func(t *testing.T) {
		for b := 0; b < blocks; b++ {
			name, block := names[b%len(names)], len(names)+b
			t.Run(fmt.Sprintf("%s/block %d", name, block), func(t *testing.T) {
				t.Parallel()
				ref, compiled := cases[name].sample(t, block)
				for _, bad := range compiled.mismatches(&ref) {
					alarms.Add(1)
					t.Logf("false alarm: %s", bad)
				}
			})
		}
	})
	// 3 quantities a block at 0.001 each: 0.3 alarms expected over the
	// 100 blocks; the seeds are fixed, so this is one draw, not a rate
	// that fluctuates from run to run.
	if n := alarms.Load(); n > 1 {
		t.Errorf("%d false alarms in %d unmutated comparisons at alpha 0.001", n, 3*blocks)
	}
}
