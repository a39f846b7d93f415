package experiments

import (
	"fmt"
	"math"

	"rumor/internal/service"
	"rumor/internal/stats"
)

// e07Families are the topologies the ladder is checked on.
var e07Families = []string{"complete", "hypercube", "star"}

// E07CouplingLadder checks the auxiliary-process ladder of the upper
// bound proof (Section 4):
//
//	Lemma 6:  T(ppx) ≼ T(pp)                     (stochastic domination)
//	Lemma 9:  Tδ(ppy) ≤ 2·Tδ/2(ppx) + O(log n)
//	Lemma 10: Tδ(pp-a) ≤ 4·Tδ/2(ppy) + O(log n)
//
// plus the coupled-run excess statistics: running ppx/ppy/pp-a on shared
// randomness, max_v (r'_v - 2 r_v) and max_v (t_v - 4 r'_v) are O(log n).
// The four marginal samples are ordinary time cells (the ppx/ppy cells
// use the v2 spec's Variant field); the coupled runs are cells of the
// registered coupling-upper kind.
func E07CouplingLadder() Experiment {
	return Experiment{
		ID:     "E7",
		Title:  "Coupling ladder pp→ppx→ppy→pp-a",
		Claim:  "Lemmas 6, 9, 10: domination chain bridging pp and pp-a.",
		Cells:  e07Cells,
		Reduce: e07Reduce,
	}
}

func e07Cells(cfg Config) []service.CellSpec {
	n := cfg.pick(256, 96)
	trials := cfg.pick(300, 80)
	coupledTrials := cfg.pick(40, 10)
	var cells []service.CellSpec
	for _, fam := range e07Families {
		pp := timeCell(fam, n, "push-pull", service.TimingSync, trials, cfg.seed(), 60, 0)
		ppx := timeCell(fam, n, "push-pull", service.TimingSync, trials, cfg.seed(), 61, 0)
		ppx.Variant = "ppx"
		ppy := timeCell(fam, n, "push-pull", service.TimingSync, trials, cfg.seed(), 62, 0)
		ppy.Variant = "ppy"
		ppa := timeCell(fam, n, "push-pull", service.TimingAsync, trials, cfg.seed(), 63, 0)
		coupled := service.CellSpec{
			Kind:      KindCouplingUpper,
			Family:    fam,
			N:         n,
			Trials:    coupledTrials,
			GraphSeed: cfg.seed(),
			TrialSeed: cfg.seed() + 100,
		}
		cells = append(cells, pp, ppx, ppy, ppa, coupled)
	}
	return cells
}

func e07Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	cur := &cursor{results: results}
	tab := stats.NewTable("family", "ppx≼pp", "q99 ppx", "q99 ppy", "q99 pp-a",
		"L9 slack", "L10 slack", "coupled max(r'-2r)", "coupled max(t-4r')", "14·ln n")
	allDominated := true
	l9OK, l10OK, coupledOK := true, true, true
	for _, fam := range e07Families {
		pp := cur.next()
		ppx := cur.next()
		ppy := cur.next()
		ppa := cur.next()
		coupled := cur.next()
		logN := math.Log(float64(pp.N))
		dominated := stats.DominatedEmpirically(ppx.Times, pp.Times, 0.12)
		if !dominated {
			allDominated = false
		}
		qppx := stats.Quantile(ppx.Times, 0.99)
		qppy := stats.Quantile(ppy.Times, 0.99)
		qppa := stats.Quantile(ppa.Times, 0.99)
		// Slack: bound minus measured; negative means violated.
		l9Slack := 2*qppx + 14*logN - qppy
		l10Slack := 4*qppy + 14*logN - qppa
		if l9Slack < 0 {
			l9OK = false
		}
		if l10Slack < 0 {
			l10OK = false
		}
		maxPPYExcess := maxOf(coupled.Times)
		maxAsyncExcess := maxOf(coupled.Series["async_excess"])
		if maxPPYExcess > 14*logN || maxAsyncExcess > 14*logN {
			coupledOK = false
		}
		tab.AddRow(fam, dominated, qppx, qppy, qppa, l9Slack, l10Slack,
			maxPPYExcess, maxAsyncExcess, 14*logN)
	}
	if err := tab.Render(cfg.out()); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out(), "Lemma 6 domination: %v; Lemma 9 bound: %v; Lemma 10 bound: %v; coupled excesses ≤ 14 ln n: %v\n",
		allDominated, l9OK, l10OK, coupledOK)

	verdict := Supported
	if !allDominated || !coupledOK {
		verdict = Borderline
	}
	if !l9OK || !l10OK {
		verdict = Failed
	}
	return &Outcome{
		ID: "E7", Title: "Coupling ladder pp→ppx→ppy→pp-a", Verdict: verdict,
		Summary: fmt.Sprintf("L6 dom=%v, L9=%v, L10=%v, coupled excess ≤ 14 ln n=%v",
			allDominated, l9OK, l10OK, coupledOK),
	}, nil
}
