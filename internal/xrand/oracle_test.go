package xrand

import (
	"math"
	"math/bits"
	"testing"
)

// expZigOracle is the ziggurat loop as it stood before Exp's fast test
// moved inline, kept verbatim: Exp(lambda) must return exactly
// expZigOracle()/lambda and leave the generator where it leaves it.
func (r *RNG) expZigOracle() float64 {
	for {
		j := r.Uint64()
		i := j & 255
		x := float64(j) * zigExpW[i]
		if j < zigExpK[i] {
			return x
		}
		if i == 0 {
			// Tail: beyond zigExpR the residual density is again
			// exponential, shifted.
			return zigExpR - math.Log(r.Float64Open())
		}
		// Wedge between the rectangle covered by the layer above and the
		// curve: exact accept/reject against the density.
		if zigExpF[i]+r.Float64()*(zigExpF[i-1]-zigExpF[i]) < math.Exp(-x) {
			return x
		}
	}
}

// TestExpMatchesZigOracle holds Exp to the oracle bit for bit over many
// seeds and rates, and counts the draws whose first word misses the fast
// test, so the wedge and the tail are known to have been compared too.
func TestExpMatchesZigOracle(t *testing.T) {
	rates := []float64{1e-3, 0.25, 1, 3, 64, 12345.678, 1 << 20, 1e9}
	wedge, tail := 0, 0
	for seed := uint64(1); seed <= 32; seed++ {
		for _, rate := range rates {
			a, b := New(seed), New(seed)
			for k := 0; k < 4000; k++ {
				peek := *b
				j := peek.Uint64()
				if i := j & 255; j >= zigExpK[i] {
					if i == 0 {
						tail++
					} else {
						wedge++
					}
				}
				got, want := a.Exp(rate), b.expZigOracle()/rate
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d rate %v draw %d: Exp = %v, oracle %v", seed, rate, k, got, want)
				}
				if *a != *b {
					t.Fatalf("seed %d rate %v draw %d: generator state differs from the oracle's", seed, rate, k)
				}
			}
		}
	}
	if wedge == 0 || tail == 0 {
		t.Fatalf("wedge paths %d, tail paths %d: both must be exercised", wedge, tail)
	}
	t.Logf("wedge paths %d, tail paths %d", wedge, tail)
}

// fillTicksLoop is FillTicks's definition: the call-by-call loop.
func fillTicksLoop(r *RNG, rate float64, n uint64, dt []float64, idx, raw []uint64) {
	for i := range dt {
		dt[i] = r.Exp(rate)
		idx[i] = r.Uint64n(n)
		raw[i] = r.Uint64()
	}
}

// checkFillTicks holds one FillTicks call to the loop from the same
// generator: every value, and the generator after.
func checkFillTicks(t *testing.T, seed uint64, rate float64, n uint64, m int) {
	t.Helper()
	a, b := New(seed), New(seed)
	dt, idx, raw := make([]float64, m), make([]uint64, m), make([]uint64, m)
	wdt, widx, wraw := make([]float64, m), make([]uint64, m), make([]uint64, m)
	a.FillTicks(rate, n, dt, idx, raw)
	fillTicksLoop(b, rate, n, wdt, widx, wraw)
	for i := range m {
		if math.Float64bits(dt[i]) != math.Float64bits(wdt[i]) || idx[i] != widx[i] || raw[i] != wraw[i] {
			t.Fatalf("seed %d rate %v n %d len %d, tick %d: FillTicks (%v, %d, %d), loop (%v, %d, %d)",
				seed, rate, n, m, i, dt[i], idx[i], raw[i], wdt[i], widx[i], wraw[i])
		}
	}
	if *a != *b {
		t.Fatalf("seed %d rate %v n %d len %d: FillTicks left the generator elsewhere than the loop", seed, rate, n, m)
	}
}

// TestFillTicksMatchesCallByCall covers powers of two, small odd bounds,
// and 2^63+1, where Lemire's test rejects about half the draws; it counts
// the rejections and ziggurat misses the blocks went through.
func TestFillTicksMatchesCallByCall(t *testing.T) {
	ns := []uint64{1, 2, 3, 64, 4095, 1<<63 + 1}
	lens := []int{0, 1, 63, 64}
	misses, rejections := 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		for _, n := range ns {
			for _, m := range lens {
				for _, rate := range []float64{1, 64, 4095.5} {
					checkFillTicks(t, seed, rate, n, m)
				}
			}
			// Count the slow paths by replaying the loop word by word.
			r := New(seed)
			for range 64 {
				peek := *r
				if j := peek.Uint64(); j >= zigExpK[j&255] {
					misses++
				}
				r.Exp(1)
				peek = *r
				if _, lo := bits.Mul64(peek.Uint64(), n); n&(n-1) != 0 && lo < n {
					rejections++
				}
				r.Uint64n(n)
				r.Uint64()
			}
		}
	}
	if misses == 0 || rejections == 0 {
		t.Fatalf("ziggurat misses %d, Lemire slow paths %d: both must be exercised", misses, rejections)
	}
	t.Logf("ziggurat misses %d, Lemire slow paths %d", misses, rejections)
}

// TestU64ToFloatMatchesConversion holds the branch-free conversion to
// float64(j) at the edges where rounding could differ: powers of two and
// their neighbors, round-half ties at every exponent, the top of the
// range, and a stream of uniform draws with ties planted in them.
func TestU64ToFloatMatchesConversion(t *testing.T) {
	check := func(j uint64) {
		if got, want := u64ToFloat(j), float64(j); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("u64ToFloat(%#x) = %v, float64 = %v", j, got, want)
		}
	}
	for e := 0; e < 64; e++ {
		p := uint64(1) << e
		for _, j := range []uint64{p - 1, p, p + 1, p | p>>1, p | p>>1 | 1, p | p>>1 - 1} {
			check(j)
		}
		if e > 53 {
			half := uint64(1) << (e - 53) // half an ulp of [2^e, 2^(e+1))
			for _, j := range []uint64{p | half, p | 3*half, p | half - 1, p | half + 1, p | 1<<(e-1) | half} {
				check(j)
			}
		}
	}
	for _, j := range []uint64{0, 1<<53 - 1, 1<<53 + 1, 1<<63 - 1, 1<<63 + 1, math.MaxUint64, math.MaxUint64 - 1, 0xffffffff, 0x100000000} {
		check(j)
	}
	r := New(17)
	for range 1 << 20 {
		j := r.Uint64()
		check(j)
		check(j&^0x7ff | 0x400) // a tie once j is at least 2^63
		check(j>>1&^0x3ff | 0x200)
	}
}

func FuzzFillTicks(f *testing.F) {
	f.Add(uint64(1), uint64(3), 1.0, uint8(64))
	f.Add(uint64(7), uint64(1<<63+1), 4095.5, uint8(63))
	f.Add(uint64(9), uint64(1), 1e-300, uint8(1))
	f.Add(uint64(0), uint64(64), 1e300, uint8(0))
	f.Fuzz(func(t *testing.T, seed, n uint64, rate float64, m uint8) {
		if n == 0 || rate <= 0 {
			return // FillTicks, Exp and Uint64n panic
		}
		checkFillTicks(t, seed, rate, n, int(m))
	})
}
