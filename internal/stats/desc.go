// Package stats provides the statistical substrate for the experiment
// harness: descriptive statistics, exact empirical quantiles and the
// high-probability spreading time, a two-sample Kolmogorov–Smirnov test
// and empirical stochastic-dominance checks (used to verify
// distributional identities the paper asserts, e.g. the equivalence of
// the three asynchronous process views), log-log and logarithmic
// least-squares fits (used to estimate growth exponents such as the
// Θ(n^{1/3}) sync spreading time on the diamond chain), and the text
// and CSV tables the experiments print.
package stats

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1 denominator)
	StdDev   float64
	Min, Max float64
	Median   float64
	Q25, Q75 float64
}

// Summarize computes descriptive statistics. It returns the zero Summary
// for an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Variance = ss / float64(s.N-1)
		s.StdDev = math.Sqrt(s.Variance)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantileSorted(sorted, 0.5)
	s.Q25 = quantileSorted(sorted, 0.25)
	s.Q75 = quantileSorted(sorted, 0.75)
	return s
}

// Mean returns the sample mean (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdErr returns the standard error of the mean.
func StdErr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return Summarize(xs).StdDev / math.Sqrt(float64(len(xs)))
}

// Quantile returns the empirical q-quantile (0 <= q <= 1) of xs, using
// the nearest-rank (ceil) definition on a sorted copy: the smallest
// sample value x such that at least q·n observations are <= x. This
// matches the paper's T_q definition: min{t : P[T <= t] >= q}.
// It panics on an empty sample or q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic("stats: Quantile with q outside [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile on an already-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// HighProbabilityTime returns the empirical analogue of the paper's
// T_{1/n} from a sample of spreading times: the (1 - 1/n)-quantile, where
// n is the graph size. With fewer than n trials this truncates to the
// sample maximum, which is the honest empirical proxy; callers should
// report the trial count alongside.
func HighProbabilityTime(sample []float64, graphN int) float64 {
	if graphN < 2 {
		return Quantile(sample, 1)
	}
	return Quantile(sample, 1-1/float64(graphN))
}
