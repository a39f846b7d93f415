package experiments

import (
	"fmt"
	"math"

	"rumor/internal/service"
	"rumor/internal/stats"
)

// e14Families are the families where the spectral machinery applies
// cleanly (connected, no isolated vertices after build).
var e14Families = []string{"complete", "hypercube", "torus", "cycle", "random-regular", "gnp", "star", "binary-tree"}

// E14ExpansionBounds checks the paper's stated consequence of Theorem 1:
// the known conductance upper bounds for synchronous push-pull
// (Giakkoupis [17]: T_{1/n}(pp) = O(log n / Φ)) carry over to the
// asynchronous protocol. We estimate Φ from below via the lazy-walk
// spectral gap (Cheeger: Φ ≥ gap) and verify
// q99(pp-a) ≤ C · log(n) / gap with a modest constant across families —
// including low-expansion topologies where the bound is loose and
// expanders where it is tight. The gap estimate is a cell of the
// registered spectral-gap kind; the async sample an ordinary time cell
// on the same graph instance (shared through the graph tier).
func E14ExpansionBounds() Experiment {
	return Experiment{
		ID:     "E14",
		Title:  "Conductance bounds carry over to async",
		Claim:  "Thm 1 + [17]: T_{1/n}(pp-a) = O(log n / Φ); measured via the spectral proxy Φ ≥ gap.",
		Cells:  e14Cells,
		Reduce: e14Reduce,
	}
}

func e14Cells(cfg Config) []service.CellSpec {
	n := cfg.pick(1024, 256)
	trials := cfg.pick(150, 40)
	var cells []service.CellSpec
	for _, fam := range e14Families {
		cells = append(cells,
			service.CellSpec{
				Kind:      KindSpectralGap,
				Family:    fam,
				N:         n,
				Trials:    1,
				GraphSeed: cfg.seed(),
				TrialSeed: cfg.seed() + 400,
				Params:    map[string]float64{"iters": 5000},
			},
			timeCell(fam, n, "push-pull", service.TimingAsync, trials, cfg.seed(), 401, 0))
	}
	return cells
}

func e14Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	cur := &cursor{results: results}
	tab := stats.NewTable("family", "n", "gap", "log n / gap", "async q99", "ratio q99·gap/log n")
	maxRatio := 0.0
	worstFam := ""
	for _, fam := range e14Families {
		gapRes := cur.next()
		async := cur.next()
		gap := gapRes.Times[0]
		aq := stats.Quantile(async.Times, 0.99)
		logN := math.Log(float64(async.N))
		bound := logN / gap
		ratio := aq / bound
		if ratio > maxRatio {
			maxRatio = ratio
			worstFam = fam
		}
		tab.AddRow(fam, async.N, gap, bound, aq, ratio)
	}
	if err := tab.Render(cfg.out()); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out(), "max q99(pp-a)·gap/log n = %.3f (%s); the carried-over bound predicts a universal constant\n",
		maxRatio, worstFam)

	return &Outcome{
		Verdict: atMost(maxRatio, 3, 10),
		Summary: fmt.Sprintf("max over families of q99(pp-a) / (log n / gap) = %.3f (%s)", maxRatio, worstFam),
	}, nil
}
