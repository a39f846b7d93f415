package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedResets(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after Seed, value %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with distinct seeds collided %d/100 times", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	// Must not be stuck at zero.
	var acc uint64
	for i := 0; i < 10; i++ {
		acc |= r.Uint64()
	}
	if acc == 0 {
		t.Fatal("generator seeded with 0 produces only zeros")
	}
}

func TestChildIndependence(t *testing.T) {
	parent := New(99)
	c0 := parent.Child(0)
	c1 := parent.Child(1)
	c0again := parent.Child(0)
	if c0.Uint64() != c0again.Uint64() {
		t.Fatal("Child(0) is not reproducible")
	}
	same := 0
	for i := 0; i < 100; i++ {
		if c0.Uint64() == c1.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("child streams 0 and 1 collided %d/100 times", same)
	}
}

func TestChildDoesNotAdvanceParent(t *testing.T) {
	a := New(5)
	b := New(5)
	_ = a.Child(3)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Child advanced the parent stream")
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(1)
	for _, n := range []uint64{1, 2, 3, 7, 10, 100, 1 << 20, 1<<63 + 3} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared sanity check over 8 buckets.
	r := New(2024)
	const buckets = 8
	const samples = 80000
	var counts [buckets]int
	for i := 0; i < samples; i++ {
		counts[r.Uint64n(buckets)]++
	}
	expected := float64(samples) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 7 degrees of freedom; 99.9% critical value is ~24.3.
	if chi2 > 24.3 {
		t.Fatalf("chi-squared = %.2f exceeds 24.3; counts = %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64OpenPositive(t *testing.T) {
	r := New(4)
	for i := 0; i < 10000; i++ {
		v := r.Float64Open()
		if v <= 0 || v >= 1 {
			t.Fatalf("Float64Open = %v out of (0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of Float64 = %v, want ~0.5", mean)
	}
}

func TestExpMeanAndRate(t *testing.T) {
	for _, lambda := range []float64{0.25, 1, 4} {
		r := New(6)
		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			v := r.Exp(lambda)
			if v < 0 {
				t.Fatalf("Exp(%v) produced negative value %v", lambda, v)
			}
			sum += v
		}
		mean := sum / n
		want := 1 / lambda
		if math.Abs(mean-want) > 0.02*want {
			t.Fatalf("mean of Exp(%v) = %v, want ~%v", lambda, mean, want)
		}
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestExpMemorylessTail(t *testing.T) {
	// P[X > 1] should be about e^{-1} for rate 1.
	r := New(7)
	const n = 200000
	count := 0
	for i := 0; i < n; i++ {
		if r.Exp(1) > 1 {
			count++
		}
	}
	got := float64(count) / n
	want := math.Exp(-1)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("P[Exp(1) > 1] = %v, want ~%v", got, want)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(10)
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			count++
		}
	}
	got := float64(count) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", got)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(12)
	s := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	sum := int32(0)
	for _, v := range s {
		sum += v
	}
	r.Shuffle32(s)
	var after int32
	for _, v := range s {
		after += v
	}
	if sum != after {
		t.Fatalf("Shuffle32 changed multiset: sum %d -> %d", sum, after)
	}
}

func TestShuffleUniformityPairs(t *testing.T) {
	// Position of element 0 after shuffling [0,1,2] should be uniform.
	r := New(13)
	var counts [3]int
	for i := 0; i < 30000; i++ {
		s := []int32{0, 1, 2}
		r.Shuffle32(s)
		for pos, v := range s {
			if v == 0 {
				counts[pos]++
			}
		}
	}
	for pos, c := range counts {
		got := float64(c) / 30000
		if math.Abs(got-1.0/3) > 0.02 {
			t.Fatalf("element 0 at position %d with frequency %v", pos, got)
		}
	}
}

func TestQuickUint64nInRange(t *testing.T) {
	r := New(14)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickChildReproducible(t *testing.T) {
	f := func(seed, idx uint64) bool {
		p := New(seed)
		return p.Child(idx).Uint64() == p.Child(idx).Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64n(12345)
	}
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(1)
	}
}
