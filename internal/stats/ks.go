package stats

import (
	"math"
	"sort"
)

// KSResult reports a two-sample Kolmogorov–Smirnov test.
type KSResult struct {
	// Statistic is the supremum distance between the two empirical CDFs.
	Statistic float64
	// PValue is the asymptotic two-sided p-value (Kolmogorov
	// distribution approximation). Small values reject the hypothesis
	// that both samples come from the same distribution.
	PValue float64
}

// KolmogorovSmirnov computes the two-sample KS statistic and asymptotic
// p-value for samples xs and ys. Inputs are not modified. Empty samples
// yield a degenerate result with PValue 1.
func KolmogorovSmirnov(xs, ys []float64) KSResult {
	if len(xs) == 0 || len(ys) == 0 {
		return KSResult{Statistic: 0, PValue: 1}
	}
	sx := append([]float64(nil), xs...)
	sy := append([]float64(nil), ys...)
	sort.Float64s(sx)
	sort.Float64s(sy)
	nx, ny := float64(len(sx)), float64(len(sy))
	var d float64
	i, j := 0, 0
	for i < len(sx) && j < len(sy) {
		var t float64
		if sx[i] <= sy[j] {
			t = sx[i]
		} else {
			t = sy[j]
		}
		for i < len(sx) && sx[i] <= t {
			i++
		}
		for j < len(sy) && sy[j] <= t {
			j++
		}
		diff := math.Abs(float64(i)/nx - float64(j)/ny)
		if diff > d {
			d = diff
		}
	}
	ne := nx * ny / (nx + ny)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return KSResult{Statistic: d, PValue: ksProbability(lambda)}
}

// ksProbability returns Q_KS(λ) = 2 Σ_{k>=1} (-1)^{k-1} e^{-2k²λ²}, the
// asymptotic tail probability of the Kolmogorov distribution.
func ksProbability(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := math.Exp(-2 * float64(k*k) * lambda * lambda)
		sum += sign * term
		sign = -sign
		if term < 1e-12 {
			break
		}
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// DominatedEmpirically reports whether the sample xs is (approximately)
// stochastically dominated by ys: X ≼ Y iff F_X(t) >= F_Y(t) for all t,
// i.e. X tends to be smaller. Empirically the check allows a one-sided
// slack tol on the CDF gap, so it passes iff
//
//	max_t ( F̂_ys(t) - F̂_xs(t) ) <= tol,
//
// the one-sided Kolmogorov–Smirnov statistic of ys over xs. Empty
// samples are trivially dominated.
func DominatedEmpirically(xs, ys []float64, tol float64) bool {
	return dominanceGap(xs, ys) <= tol
}

// DominatedEmpiricallyInt is DominatedEmpirically for integer samples.
func DominatedEmpiricallyInt(xs, ys []int64, tol float64) bool {
	fx := make([]float64, len(xs))
	for i, v := range xs {
		fx[i] = float64(v)
	}
	fy := make([]float64, len(ys))
	for i, v := range ys {
		fy[i] = float64(v)
	}
	return DominatedEmpirically(fx, fy, tol)
}

// dominanceGap returns max_t (F̂_ys(t) - F̂_xs(t)), the worst one-sided
// deviation of the empirical CDFs; <= 0 means xs is dominated exactly.
func dominanceGap(xs, ys []float64) float64 {
	if len(xs) == 0 || len(ys) == 0 {
		return 0
	}
	sx := append([]float64(nil), xs...)
	sy := append([]float64(nil), ys...)
	sort.Float64s(sx)
	sort.Float64s(sy)
	nx, ny := float64(len(sx)), float64(len(sy))
	gap := math.Inf(-1)
	i, j := 0, 0
	for i < len(sx) || j < len(sy) {
		var t float64
		switch {
		case i >= len(sx):
			t = sy[j]
		case j >= len(sy):
			t = sx[i]
		case sx[i] <= sy[j]:
			t = sx[i]
		default:
			t = sy[j]
		}
		for i < len(sx) && sx[i] <= t {
			i++
		}
		for j < len(sy) && sy[j] <= t {
			j++
		}
		if d := float64(j)/ny - float64(i)/nx; d > gap {
			gap = d
		}
	}
	return gap
}
