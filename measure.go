package rumor

import (
	"rumor/internal/harness"
	"rumor/internal/stats"
)

// Measurement and harness types, re-exported for library users.
type (
	// Measurement is a sample of spreading times.
	Measurement = harness.Measurement
	// Family is a named, size-parameterized graph family.
	Family = harness.Family
	// Summary holds descriptive statistics of a sample.
	Summary = stats.Summary
	// KSResult reports a two-sample Kolmogorov–Smirnov test.
	KSResult = stats.KSResult
	// PowerLawFit is a least-squares fit of y = C·x^α.
	PowerLawFit = stats.PowerLawFit
)

// MeasureSync samples the synchronous spreading time over trials runs.
func MeasureSync(g *Graph, src NodeID, p Protocol, trials int, seed uint64, workers int) (*Measurement, error) {
	return harness.MeasureSync(g, src, p, trials, seed, workers)
}

// MeasureAsync samples the asynchronous spreading time over trials runs.
func MeasureAsync(g *Graph, src NodeID, p Protocol, trials int, seed uint64, workers int) (*Measurement, error) {
	return harness.MeasureAsync(g, src, p, trials, seed, workers)
}

// MeasurePPVariant samples the ppx/ppy spreading time over trials runs.
func MeasurePPVariant(g *Graph, src NodeID, v PPVariant, trials int, seed uint64, workers int) (*Measurement, error) {
	return harness.MeasurePPVariant(g, src, v, trials, seed, workers)
}

// StandardFamilies returns the graph families used by the experiments.
func StandardFamilies() []Family { return harness.StandardFamilies() }

// FamilyByName returns the standard family with the given name.
func FamilyByName(name string) (Family, error) { return harness.FamilyByName(name) }

// Summarize computes descriptive statistics of a sample.
func Summarize(xs []float64) Summary { return stats.Summarize(xs) }

// Quantile returns the empirical q-quantile (nearest-rank), matching the
// paper's T_q = min{t : P[T <= t] >= q} definition.
func Quantile(xs []float64, q float64) float64 { return stats.Quantile(xs, q) }

// HighProbabilityTime is the empirical proxy for the paper's T_{1/n}.
func HighProbabilityTime(sample []float64, graphN int) float64 {
	return stats.HighProbabilityTime(sample, graphN)
}

// KolmogorovSmirnov runs a two-sample KS test.
func KolmogorovSmirnov(xs, ys []float64) KSResult { return stats.KolmogorovSmirnov(xs, ys) }

// FitPowerLaw fits y = C·x^α by least squares on log-log scale.
func FitPowerLaw(xs, ys []float64) (PowerLawFit, error) { return stats.FitPowerLaw(xs, ys) }
