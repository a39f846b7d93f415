package experiments

import (
	"fmt"

	"rumor/internal/service"
	"rumor/internal/stats"
)

// e12Params fixes the Lemma 8 scenario: k i.i.d. Exp(λ) variables, the
// conditioning event {∀i: Z_i > α_i} with a nontrivial α vector, and the
// conditioned argmin index (α_4 = 2: a nontrivial case).
const (
	e12K      = 6
	e12Lambda = 0.7
	e12Target = 4
)

var e12Alphas = []float64{0, 1, 2, 0, 2, 1}

// E12Lemma8 verifies the technical Lemma 8 by Monte Carlo: let
// Z_1..Z_k ~ i.i.d. Exp(λ), J = argmin_i Z_i, A the event {∀i: Z_i > α_i}
// for fixed non-negative integers α_i, and Z = min_i (Z_i - α_i). Then
// (Z | J = j, A) ~ Exp(kλ). We rejection-sample the conditional law and
// compare it against fresh Exp(kλ) samples with a KS test. The sampler
// is a graphless cell of the registered lemma8 kind (Trials = accepted
// sample count).
func E12Lemma8() Experiment {
	return Experiment{
		ID:     "E12",
		Title:  "Lemma 8 (conditional min of exponentials)",
		Claim:  "Lemma 8: (min_i(Z_i - α_i) | argmin_i Z_i = j, ∀i Z_i > α_i) ~ Exp(kλ).",
		Cells:  e12Cells,
		Reduce: e12Reduce,
	}
}

func e12Cells(cfg Config) []service.CellSpec {
	params := map[string]float64{
		"k":      e12K,
		"lambda": e12Lambda,
		"target": e12Target,
	}
	for i, a := range e12Alphas {
		params[fmt.Sprintf("alpha%d", i)] = a
	}
	return []service.CellSpec{{
		Kind:      KindLemma8,
		Trials:    cfg.pick(3000, 800),
		TrialSeed: cfg.seed() + 300,
		Params:    params,
	}}
}

func e12Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	res := results[0]
	conditional := res.Times
	ref := res.Series["reference"]
	attempts := int(res.Values["attempts"])

	ks := stats.KolmogorovSmirnov(conditional, ref)
	condMean := stats.Mean(conditional)
	wantMean := 1 / (e12K * e12Lambda)
	fmt.Fprintf(cfg.out(),
		"accepted %d/%d draws; conditional mean %.4f (Exp(kλ) mean %.4f); KS stat %.4f p %.4f\n",
		len(conditional), attempts, condMean, wantMean, ks.Statistic, ks.PValue)

	return &Outcome{
		Verdict: atLeast(ks.PValue, 0.005, 1e-6),
		Summary: fmt.Sprintf("conditional law vs Exp(kλ): KS p = %.4f, mean %.4f vs %.4f",
			ks.PValue, condMean, wantMean),
	}, nil
}
