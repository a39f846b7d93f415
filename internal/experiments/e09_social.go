package experiments

import (
	"fmt"
	"math"

	"rumor/internal/service"
	"rumor/internal/stats"
)

var (
	e09Families = []string{"powerlaw", "pref-attach"}
	e09Fracs    = []float64{0.5, 0.99}
)

// E09SocialNetworks checks the paper's motivating observation for social
// networks (Section 1, citing Doerr–Fouz–Friedrich [9] and Fountoulakis–
// Panagiotou–Sauerwald [16]): on power-law topologies (Chung–Lu, and
// preferential attachment), asynchronous push-pull spreads the rumor to a
// large fraction of the nodes faster than the synchronous protocol.
// We measure time to 50% and 99% coverage: async continuous time vs sync
// rounds (the natural unit-for-unit comparison, since a synchronous round
// is one expected tick per node). Both milestones come from one cell per
// timing — the v2 spec's CoverageFracs reports them from a single sample.
// The verdict bands the worst async/sync ratio at 50 % coverage: at most
// 0.75 is SUPPORTED, above 1 (sync got there first) is FAILED.
func E09SocialNetworks() Experiment {
	return Experiment{
		ID:     "E9",
		Title:  "Social networks: async beats sync to coverage",
		Claim:  "§1 [9,16]: on power-law graphs, pp-a informs a large fraction faster than pp.",
		Cells:  e09Cells,
		Reduce: e09Reduce,
	}
}

func e09Cells(cfg Config) []service.CellSpec {
	n := cfg.pick(4000, 1000)
	trials := cfg.pick(60, 20)
	var cells []service.CellSpec
	for _, fam := range e09Families {
		sync := timeCell(fam, n, "push-pull", service.TimingSync, trials, cfg.seed(), 70, 0)
		sync.CoverageFracs = e09Fracs
		async := timeCell(fam, n, "push-pull", service.TimingAsync, trials, cfg.seed(), 71, 0)
		async.CoverageFracs = e09Fracs
		cells = append(cells, sync, async)
	}
	return cells
}

func e09Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	cur := &cursor{results: results}
	tab := stats.NewTable("family", "n", "coverage", "E[sync] rounds", "E[async] time", "async/sync")
	worstRatio := 0.0
	for _, fam := range e09Families {
		sync := cur.next()
		async := cur.next()
		for _, frac := range e09Fracs {
			name := service.CoverageName(frac)
			sm := sync.Coverage[name]
			am := async.Coverage[name]
			ratio := am / sm
			// An async milestone some trial never reached reads −1: async
			// never got there, which is infinitely slower.
			if am < 0 {
				ratio = math.Inf(1)
			}
			if frac == 0.5 {
				worstRatio = math.Max(worstRatio, ratio)
			}
			tab.AddRow(fam, sync.N, frac, sm, am, ratio)
		}
	}
	if err := tab.Render(cfg.out()); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out(), "worst async/sync ratio at 50%% coverage: %.3f; the claim predicts below 1\n", worstRatio)

	return &Outcome{
		Verdict: atMost(worstRatio, 0.75, 1),
		Summary: fmt.Sprintf("worst async/sync time to 50%% coverage on power-law families: %.3f", worstRatio),
	}, nil
}
