package experiments

import (
	"fmt"

	"rumor/internal/core"
	"rumor/internal/service"
	"rumor/internal/stats"
)

// e10Graphs are two structurally different topologies (E10 compares
// process views, not families, so tiny fixed sizes suffice).
var e10Graphs = []struct {
	family string
	n      int
}{
	{"hypercube", 64},
	{"star", 64},
}

var e10Views = []core.AsyncView{core.GlobalClock, core.PerNodeClocks, core.PerEdgeClocks}

// E10AsyncViews checks the paper's Section 2 equivalence of the three
// descriptions of pp-a: per-node rate-1 Poisson clocks, per-directed-edge
// rate-1/deg(v) clocks, and a single global rate-n clock. The spreading
// time distributions must be identical; we compare all pairs with
// two-sample KS tests on two structurally different graphs. Each view is
// one async cell with the v2 spec's View field set.
func E10AsyncViews() Experiment {
	return Experiment{
		ID:     "E10",
		Title:  "Equivalent async process views",
		Claim:  "§2: per-node, per-edge, and global-clock views of pp-a are the same process.",
		Cells:  e10Cells,
		Reduce: e10Reduce,
	}
}

func e10Cells(cfg Config) []service.CellSpec {
	trials := cfg.pick(300, 80)
	var cells []service.CellSpec
	for _, g := range e10Graphs {
		for i, view := range e10Views {
			c := timeCell(g.family, g.n, "push-pull", service.TimingAsync, trials, cfg.seed(), 80+uint64(i), 0)
			c.View = view.String()
			cells = append(cells, c)
		}
	}
	return cells
}

func e10Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	cur := &cursor{results: results}
	tab := stats.NewTable("graph", "views", "KS stat", "KS p")
	minP := 1.0
	for _, g := range e10Graphs {
		samples := make([][]float64, len(e10Views))
		for i := range e10Views {
			samples[i] = cur.next().Times
		}
		for i := 0; i < len(e10Views); i++ {
			for j := i + 1; j < len(e10Views); j++ {
				ks := stats.KolmogorovSmirnov(samples[i], samples[j])
				if ks.PValue < minP {
					minP = ks.PValue
				}
				tab.AddRow(g.family, fmt.Sprintf("%v vs %v", e10Views[i], e10Views[j]), ks.Statistic, ks.PValue)
			}
		}
	}
	if err := tab.Render(cfg.out()); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out(), "min pairwise KS p-value = %.4f; equivalence predicts non-small p-values\n", minP)

	return &Outcome{
		Verdict: atLeast(minP, 0.005, 1e-6),
		Summary: fmt.Sprintf("pairwise KS of 3 views on 2 graphs: min p = %.4f", minP),
	}, nil
}
