package experiments

import (
	"fmt"
	"math"

	"rumor/internal/service"
	"rumor/internal/stats"
)

// e08Families are the block-coupling topologies. The cycle runs at half
// size (its Θ(n) spreading time makes full-size trials expensive).
var e08Families = []string{"complete", "hypercube", "star", "cycle"}

func e08Size(fam string, n int) int {
	if fam == "cycle" {
		return n / 2
	}
	return n
}

// E08BlockCoupling exercises the lower-bound block decomposition
// (Section 5) and its invariants:
//
//   - Lemma 13: after every block, the pp-a informed set is contained in
//     the coupled pp informed set;
//   - Remark 12: for every normal block, sequential and parallel
//     execution of the block's contacts agree;
//   - Lemma 14: E[ρ_τ] = O(E[τ]/√n + √n), with the component bounds
//     E[ρ_left] ≤ 2 E[τ]/√n and E[ρ_special] ≤ 2 √n.
//
// The measurements are cells of the registered coupling-lower kind.
func E08BlockCoupling() Experiment {
	return Experiment{
		ID:     "E8",
		Title:  "Lower-bound block coupling",
		Claim:  "Lemmas 13, 14 + Remark 12: block decomposition mapping pp-a steps to pp rounds.",
		Cells:  e08Cells,
		Reduce: e08Reduce,
	}
}

func e08Cells(cfg Config) []service.CellSpec {
	n := cfg.pick(256, 100)
	trials := cfg.pick(20, 6)
	var cells []service.CellSpec
	for _, fam := range e08Families {
		cells = append(cells, service.CellSpec{
			Kind:      KindCouplingLower,
			Family:    fam,
			N:         e08Size(fam, n),
			Trials:    trials,
			GraphSeed: cfg.seed(),
			TrialSeed: cfg.seed() + 200,
		})
	}
	return cells
}

func e08Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	cur := &cursor{results: results}
	tab := stats.NewTable("family", "n", "E[τ]", "E[ρ]", "bound 3τ/√n+4√n+1",
		"E[ρ_left]", "2τ/√n", "E[ρ_special]", "2√n", "subset", "seq=par")
	subsetOK, seqParOK, rhoOK, leftOK, specialOK := true, true, true, true, true
	for _, fam := range e08Families {
		res := cur.next()
		sqrtN := math.Sqrt(float64(res.N))
		meanTau := stats.Mean(res.Times)
		meanRho := stats.Mean(res.Series["rho"])
		meanLeft := stats.Mean(res.Series["rho_left"])
		meanSpecial := stats.Mean(res.Series["rho_special"])
		famSubset := allUnit(res.Series["subset"])
		famSeqPar := allUnit(res.Series["seq_par"])
		bound := 3*meanTau/sqrtN + 4*sqrtN + 1
		leftBound := 2 * meanTau / sqrtN
		specialBound := 2 * sqrtN
		if meanRho > 2*bound {
			rhoOK = false
		}
		if meanLeft > 2*leftBound {
			leftOK = false
		}
		if meanSpecial > 2*specialBound {
			specialOK = false
		}
		subsetOK = subsetOK && famSubset
		seqParOK = seqParOK && famSeqPar
		tab.AddRow(fam, res.N, meanTau, meanRho, bound,
			meanLeft, leftBound, meanSpecial, specialBound, famSubset, famSeqPar)
	}
	if err := tab.Render(cfg.out()); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out(), "subset invariant: %v; seq=parallel: %v; ρ bound: %v; ρ_left bound: %v; ρ_special bound: %v\n",
		subsetOK, seqParOK, rhoOK, leftOK, specialOK)

	return &Outcome{
		// Subset and seq=par are exact invariants: any violation is a bug.
		Verdict: worst(holds(rhoOK && leftOK && specialOK, Borderline), holds(subsetOK && seqParOK, Failed)),
		Summary: fmt.Sprintf("Lemma 13 subset=%v, Remark 12=%v, Lemma 14 bounds (ρ=%v, left=%v, special=%v)",
			subsetOK, seqParOK, rhoOK, leftOK, specialOK),
	}, nil
}
