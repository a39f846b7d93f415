package experiments

import (
	"fmt"
	"math"

	"rumor/internal/service"
	"rumor/internal/stats"
)

// E03Theorem2 checks the paper's lower bound (equivalently: the sync
// process is at most ~sqrt(n) slower than the async one in expectation):
// E[T(pp-a)] = Ω(E[T(pp)] / sqrt(n)), i.e.
// E[T(pp)] / (sqrt(n) · E[T(pp-a)]) = O(1) on every graph.
//
// The measurement grid is exactly E2's (theoremCells): both theorems
// read the same sync/async push-pull samples, so a caching runner
// computes them once.
func E03Theorem2() Experiment {
	return Experiment{
		ID:     "E3",
		Title:  "Theorem 2 (sync ≤ sqrt(n)·async)",
		Claim:  "Thm 2: E[T(pp-a,G,u)] = Ω(E[T(pp,G,u)]/√n) for every graph.",
		Cells:  theoremCells,
		Reduce: e03Reduce,
	}
}

func e03Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	cur := &cursor{results: results}
	tab := stats.NewTable("family", "n", "E[sync] rounds", "E[async] time", "sync/async", "ratio/(√n)")
	maxRatio := 0.0
	worstFamily := ""
	for _, fam := range connectedFamilies() {
		sync := cur.next()
		async := cur.next()
		sm := stats.Mean(sync.Times)
		am := stats.Mean(async.Times)
		sqrtN := math.Sqrt(float64(sync.N))
		ratio := sm / am
		capped := ratio / sqrtN
		if capped > maxRatio {
			maxRatio = capped
			worstFamily = fam.Name
		}
		tab.AddRow(fam.Name, sync.N, sm, am, ratio, capped)
	}
	if err := tab.Render(cfg.out()); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out(), "max of E[sync]/(√n·E[async]) = %.3f (%s); Theorem 2 predicts a universal constant\n", maxRatio, worstFamily)

	return &Outcome{
		Verdict: atMost(maxRatio, 2, 6),
		Summary: fmt.Sprintf("max over families of E[sync]/(√n·E[async]) = %.3f (%s)", maxRatio, worstFamily),
	}, nil
}
