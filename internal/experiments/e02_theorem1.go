package experiments

import (
	"fmt"
	"math"

	"rumor/internal/harness"
	"rumor/internal/service"
	"rumor/internal/stats"
)

// E02Theorem1 checks the paper's main upper bound on every graph family:
// T_{1/n}(pp-a) = O(T_{1/n}(pp) + log n). We estimate the whp time by the
// 0.99 empirical quantile (and report the max as a stricter proxy) and
// verify that the ratio q99(async) / (q99(sync) + ln n) stays below a
// small constant across families.
func E02Theorem1() Experiment {
	return Experiment{
		ID:     "E2",
		Title:  "Theorem 1 (async ≤ sync + log n)",
		Claim:  "Thm 1: T_{1/n}(pp-a,G,u) = O(T_{1/n}(pp,G,u) + log n) for every graph.",
		Cells:  theoremCells,
		Reduce: e02Reduce,
	}
}

// theoremCells is the grid E2 and E3 share: one sync and one async
// push-pull sample per standard family. Sharing the grid (identical
// specs, hence identical cache keys) means a result-caching runner
// computes these cells once for both experiments.
func theoremCells(cfg Config) []service.CellSpec {
	n := cfg.pick(1024, 256)
	trials := cfg.pick(150, 40)
	var cells []service.CellSpec
	for _, fam := range connectedFamilies() {
		cells = append(cells,
			timeCell(fam.Name, n, "push-pull", service.TimingSync, trials, cfg.seed(), 10, 0),
			timeCell(fam.Name, n, "push-pull", service.TimingAsync, trials, cfg.seed(), 11, 0))
	}
	return cells
}

// connectedFamilies filters the standard families to those guaranteeing
// connected instances: the theorems measure static spreading time,
// which is undefined on a disconnected graph. The at/below-threshold
// G(n,p) presets are exercised by E17's dynamic scenarios instead.
func connectedFamilies() []harness.Family {
	var out []harness.Family
	for _, f := range harness.StandardFamilies() {
		if !f.MaybeDisconnected {
			out = append(out, f)
		}
	}
	return out
}

func e02Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	cur := &cursor{results: results}
	tab := stats.NewTable("family", "n", "sync q99", "sync max", "async q99", "async max", "ratio q99a/(q99s+ln n)")
	maxRatio := 0.0
	worstFamily := ""
	for _, fam := range connectedFamilies() {
		sync := cur.next()
		async := cur.next()
		sq := stats.Quantile(sync.Times, 0.99)
		aq := stats.Quantile(async.Times, 0.99)
		logN := math.Log(float64(sync.N))
		ratio := aq / (sq + logN)
		if ratio > maxRatio {
			maxRatio = ratio
			worstFamily = fam.Name
		}
		tab.AddRow(fam.Name, sync.N, sq, stats.Quantile(sync.Times, 1),
			aq, stats.Quantile(async.Times, 1), ratio)
	}
	if err := tab.Render(cfg.out()); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out(), "max ratio %.3f (family %s); Theorem 1 predicts a universal constant\n", maxRatio, worstFamily)

	return &Outcome{
		Verdict: atMost(maxRatio, 6, 12),
		Summary: fmt.Sprintf("max over %d families of q99(async)/(q99(sync)+ln n) = %.2f (%s)",
			len(connectedFamilies()), maxRatio, worstFamily),
	}, nil
}
