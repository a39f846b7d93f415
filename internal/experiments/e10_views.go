package experiments

import (
	"fmt"
	"math"
	"strings"

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
	{"hypercube", 32},
	{"star", 32},
}

var e10Views = []core.AsyncView{core.GlobalClock, core.PerNodeClocks, core.PerEdgeClocks}

// E10AsyncViews checks the paper's Section 2 equivalence of the three
// descriptions of pp-a: per-node rate-1 Poisson clocks, per-directed-edge
// rate-1/deg(v) clocks, and a single global rate-n clock. Each view is
// one async-reference cell, which runs the view's literal clocks; the
// spreading-time distributions must be identical. On each of two
// structurally different graphs the three pairwise two-sample KS tests
// are judged together by Holm's correction, min(1, 3·min p).
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
			c.Kind, c.View = KindAsyncReference, view.String()
			cells = append(cells, c)
		}
	}
	return cells
}

func e10Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	cur := &cursor{results: results}
	tab := stats.NewTable("graph", "views", "KS stat", "KS p")
	verdict := Supported
	var holm []string
	for _, g := range e10Graphs {
		samples := make([][]float64, len(e10Views))
		for i := range e10Views {
			samples[i] = cur.next().Times
		}
		minP := 1.0
		for i := 0; i < len(e10Views); i++ {
			for j := i + 1; j < len(e10Views); j++ {
				ks := stats.KolmogorovSmirnov(samples[i], samples[j])
				minP = math.Min(minP, ks.PValue)
				tab.AddRow(g.family, fmt.Sprintf("%v vs %v", e10Views[i], e10Views[j]), ks.Statistic, ks.PValue)
			}
		}
		stat := math.Min(1, 3*minP)
		verdict = worst(verdict, atLeast(stat, 0.005, 1e-6))
		holm = append(holm, fmt.Sprintf("%s %.4f", g.family, stat))
	}
	if err := tab.Render(cfg.out()); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out(), "Holm-adjusted min p per graph: %s; equivalence predicts non-small values\n", strings.Join(holm, ", "))

	return &Outcome{
		Verdict: verdict,
		Summary: fmt.Sprintf("pairwise KS of 3 literal views, Holm per graph: %s", strings.Join(holm, ", ")),
	}, nil
}
