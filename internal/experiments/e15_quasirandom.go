package experiments

import (
	"fmt"

	"rumor/internal/service"
	"rumor/internal/stats"
)

var e15Families = []string{"complete", "hypercube", "star", "gnp", "pref-attach", "torus"}

// E15Quasirandom compares the quasirandom push-pull protocol (the
// paper's reference [11]: Doerr, Friedrich, Künnemann, Sauerwald —
// cyclic neighbor lists with one random offset per node) against the
// fully random protocol. The quasirandom literature's experimental
// finding is that the derandomization preserves the spreading time
// within a small constant (and often slightly improves it); we check
// that the q99 ratio stays in a tight band across families. This is a
// flagged extension, not a claim of the reproduced paper.
// The quasirandom sample is a time cell with the v2 spec's Quasirandom
// flag.
func E15Quasirandom() Experiment {
	return Experiment{
		ID:     "E15",
		Title:  "Quasirandom push-pull (extension, ref [11])",
		Claim:  "[11]: one random offset per node suffices — quasirandom ≈ random push-pull.",
		Cells:  e15Cells,
		Reduce: e15Reduce,
	}
}

func e15Cells(cfg Config) []service.CellSpec {
	n := cfg.pick(1024, 256)
	trials := cfg.pick(150, 40)
	var cells []service.CellSpec
	for _, fam := range e15Families {
		random := timeCell(fam, n, "push-pull", service.TimingSync, trials, cfg.seed(), 500, 0)
		qr := timeCell(fam, n, "push-pull", service.TimingSync, trials, cfg.seed(), 501, 0)
		qr.Quasirandom = true
		cells = append(cells, random, qr)
	}
	return cells
}

func e15Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	cur := &cursor{results: results}
	tab := stats.NewTable("family", "n", "random q99", "quasirandom q99", "ratio qr/rand")
	minRatio, maxRatio := 1e18, 0.0
	for _, fam := range e15Families {
		random := cur.next()
		qr := cur.next()
		rq := stats.Quantile(random.Times, 0.99)
		qq := stats.Quantile(qr.Times, 0.99)
		ratio := qq / rq
		if ratio < minRatio {
			minRatio = ratio
		}
		if ratio > maxRatio {
			maxRatio = ratio
		}
		tab.AddRow(fam, random.N, rq, qq, ratio)
	}
	if err := tab.Render(cfg.out()); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out(), "quasirandom/random q99 ratios in [%.2f, %.2f]; [11] predicts ≈ 1\n", minRatio, maxRatio)

	verdict := Supported
	if maxRatio > 2 || minRatio < 0.4 {
		verdict = Borderline
	}
	if maxRatio > 5 {
		verdict = Failed
	}
	return &Outcome{
		ID: "E15", Title: "Quasirandom push-pull (extension, ref [11])", Verdict: verdict,
		Summary: fmt.Sprintf("quasirandom/random q99 ratios in [%.2f, %.2f] across %d families", minRatio, maxRatio, len(e15Families)),
	}, nil
}
