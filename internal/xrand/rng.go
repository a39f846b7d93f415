// Package xrand provides a small, fast, deterministic random number
// generator substrate for the simulation engines.
//
// The generator is xoshiro256** seeded through splitmix64. It is not
// cryptographically secure; it is chosen for speed, statistical quality,
// and reproducibility. Every simulation in this repository is a pure
// function of (inputs, seed): parallel trials derive independent child
// streams with Child, so results do not depend on goroutine scheduling.
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator
// (xoshiro256** with 256 bits of state).
//
// The zero value is not valid; construct with New.
// RNG is not safe for concurrent use; give each goroutine its own
// instance (see Child).
type RNG struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator seeded from seed via splitmix64, which maps any
// seed (including 0) to a well-mixed nondegenerate state.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state as if freshly constructed with New(seed).
func (r *RNG) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	// The all-zero state is the only invalid one; splitmix64 cannot
	// produce four zero outputs in a row, but guard regardless.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s3 = 1
	}
}

// Child derives an independent generator stream from the current generator
// state and the stream index i. Deriving children with distinct indices
// from the same parent yields streams that are independent for all
// practical simulation purposes. The parent's state is not advanced, so
// Child(i) is reproducible.
func (r *RNG) Child(i uint64) *RNG {
	// Mix the parent state with the index through splitmix64 of a
	// combined seed. Using two rounds of mixing on distinct state words
	// avoids correlated children for adjacent indices.
	seed := r.s0 ^ (r.s2 * 0x9e3779b97f4a7c15) ^ (i+1)*0xd1342543de82ef95
	return New(seed)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// step is Uint64 on a state held in locals: the output and the state
// after it. Loops that keep the state in registers across many draws
// (Fill, FillTicks) call it; Uint64 spells it out on the fields, since
// calling step would put Uint64 over the inlining budget.
func step(s0, s1, s2, s3 uint64) (x, n0, n1, n2, n3 uint64) {
	x = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return x, s0, s1, s2, rotl(s3, 45)
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// It uses Lemire's multiply-shift rejection method, which is unbiased.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	return r.Uint64nFrom(r.Uint64(), n)
}

// Uint64nFrom maps the already-drawn 64-bit value x to a uniform value in
// [0, n) by Lemire's multiply-shift, drawing further values from r only in
// the (rare) rejection case. It is the batch-friendly form of Uint64n: the
// hot loops fill a buffer of raw draws once per round (Fill) and reduce
// each draw to its bound inline. It panics if n == 0.
func (r *RNG) Uint64nFrom(x, n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64nFrom with n == 0")
	}
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		thresh := (-n) % n
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, n)
		}
	}
	return hi
}

// Fill overwrites buf with uniformly distributed 64-bit values, advancing
// the stream by len(buf) draws. Batching the raw draws of a simulation
// round into one call keeps the generator state in registers across the
// whole buffer.
func (r *RNG) Fill(buf []uint64) {
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for i := range buf {
		buf[i], s0, s1, s2, s3 = step(s0, s1, s2, s3)
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int32n returns a uniform int32 in [0, n). It panics if n <= 0.
func (r *RNG) Int32n(n int32) int32 {
	if n <= 0 {
		panic("xrand: Int32n with n <= 0")
	}
	return int32(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in the open interval (0, 1),
// suitable for inverse-CDF sampling where log(0) must be avoided.
func (r *RNG) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Exp returns an exponentially distributed value with rate lambda
// (mean 1/lambda), via the ziggurat method (one raw draw and a table
// lookup on ~97.8% of calls, versus a math.Log on every inverse-CDF
// draw — the exponential is the asynchronous engines' innermost
// operation). It panics if lambda <= 0.
func (r *RNG) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("xrand: Exp with lambda <= 0")
	}
	j := r.Uint64()
	if i := j & 255; j < zigExpK[i] {
		return u64ToFloat(j) * zigExpW[i] / lambda
	}
	return r.expZigFrom(j) / lambda
}

// FillTicks draws len(dt) clock ticks of a superposed process: it is
// exactly
//
//	for i := range dt {
//		dt[i] = r.Exp(rate)
//		idx[i] = r.Uint64n(n)
//		raw[i] = r.Uint64()
//	}
//
// value for value, and leaves the generator where that loop would, but
// keeps the generator state in registers across the block; a ziggurat
// miss or a Lemire rejection stores it, takes the out-of-line path on r,
// and reloads it. idx and raw must be at least as long as dt. It panics
// if dt is not empty and rate <= 0 or n == 0.
func (r *RNG) FillTicks(rate float64, n uint64, dt []float64, idx, raw []uint64) {
	if len(dt) == 0 {
		return
	}
	if rate <= 0 || n == 0 {
		panic("xrand: FillTicks with rate <= 0 or n == 0")
	}
	idx, raw = idx[:len(dt)], raw[:len(dt)]
	pow2 := n&(n-1) == 0
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for i := range dt {
		var j, x uint64
		j, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		if k := j & 255; j < zigExpK[k] {
			dt[i] = u64ToFloat(j) * zigExpW[k] / rate
		} else {
			r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
			dt[i] = r.expZigFrom(j) / rate
			s0, s1, s2, s3 = r.s0, r.s1, r.s2, r.s3
		}

		x, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		if pow2 {
			idx[i] = x & (n - 1)
		} else if hi, lo := bits.Mul64(x, n); lo >= n {
			idx[i] = hi
		} else {
			r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
			idx[i] = r.Uint64nFrom(x, n)
			s0, s1, s2, s3 = r.s0, r.s1, r.s2, r.s3
		}

		raw[i], s0, s1, s2, s3 = step(s0, s1, s2, s3)
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// ExpInv is Exp by inverse-CDF sampling (-log(U)/lambda). It consumes
// exactly one uniform per draw, which the statistical-equivalence tests
// and couplings that need a fixed draw count rely on; the distribution is
// identical to Exp's. It panics if lambda <= 0.
func (r *RNG) ExpInv(lambda float64) float64 {
	if lambda <= 0 {
		panic("xrand: ExpInv with lambda <= 0")
	}
	return -math.Log(r.Float64Open()) / lambda
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Shuffle32 shuffles a slice of int32 in place.
func (r *RNG) Shuffle32(s []int32) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}
