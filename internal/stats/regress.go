package stats

import (
	"errors"
	"math"
)

// ErrBadFit reports an impossible regression input.
var ErrBadFit = errors.New("stats: regression needs >= 2 points with positive coordinates")

// PowerLawFit is the least-squares fit of y = C · x^Alpha on log-log
// scale. The paper's scaling claims (e.g. synchronous push-pull needs
// Θ(n^{1/3}) rounds on the diamond chain, asynchronous needs polylog) are
// verified by fitting measured times against n and reading the exponent.
type PowerLawFit struct {
	Alpha float64 // exponent
	LogC  float64 // intercept in log space
	R2    float64 // coefficient of determination in log space
}

// C returns the multiplicative constant e^LogC.
func (f PowerLawFit) C() float64 { return math.Exp(f.LogC) }

// FitPowerLaw fits y = C·x^α by ordinary least squares on (log x, log y).
// All coordinates must be positive.
func FitPowerLaw(xs, ys []float64) (PowerLawFit, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return PowerLawFit{}, ErrBadFit
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return PowerLawFit{}, ErrBadFit
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	slope, intercept, r2, err := linearFit(lx, ly)
	if err != nil {
		return PowerLawFit{}, err
	}
	return PowerLawFit{Alpha: slope, LogC: intercept, R2: r2}, nil
}

// linearFit returns the OLS slope, intercept and R² of y on x.
func linearFit(xs, ys []float64) (slope, intercept, r2 float64, err error) {
	n := float64(len(xs))
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, 0, ErrBadFit
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, ErrBadFit
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		r2 = 1
	} else {
		r2 = sxy * sxy / (sxx * syy)
	}
	return slope, intercept, r2, nil
}

// FitLogarithmic fits y = a + b·ln(x) and returns (a, b, R²). Used to
// confirm logarithmic growth (e.g. asynchronous push-pull time on the
// star is Θ(log n)).
func FitLogarithmic(xs, ys []float64) (a, b, r2 float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, 0, ErrBadFit
	}
	lx := make([]float64, len(xs))
	for i := range xs {
		if xs[i] <= 0 {
			return 0, 0, 0, ErrBadFit
		}
		lx[i] = math.Log(xs[i])
	}
	b, a, r2, err = linearFit(lx, ys)
	return a, b, r2, err
}
