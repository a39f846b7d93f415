package experiments

import (
	"fmt"

	"rumor/internal/harness"
	"rumor/internal/service"
	"rumor/internal/stats"
)

// E04Corollary3 checks Corollary 3: on connected regular graphs, the
// synchronous push(-only) protocol has the same asymptotic whp spreading
// time as synchronous push-pull: T_{p,1/n} = Θ(T_{pp,1/n}). We verify
// that the ratio q99(push)/q99(push-pull) is a bounded constant (>= 1 up
// to noise, and not growing with n).
func E04Corollary3() Experiment {
	return Experiment{
		ID:     "E4",
		Title:  "Corollary 3 (push = Θ(push-pull) sync, regular)",
		Claim:  "Cor 3: on regular graphs, T_{p,1/n} = Θ(T_{pp,1/n}).",
		Cells:  e04Cells,
		Reduce: e04Reduce,
	}
}

func e04Sizes(cfg Config) []int {
	if cfg.Quick {
		return []int{128, 256}
	}
	return []int{256, 1024}
}

func e04Cells(cfg Config) []service.CellSpec {
	trials := cfg.pick(150, 40)
	var cells []service.CellSpec
	for _, n := range e04Sizes(cfg) {
		for _, fam := range harness.RegularFamilies() {
			cells = append(cells,
				timeCell(fam.Name, n, "push", service.TimingSync, trials, cfg.seed(), 30, 0),
				timeCell(fam.Name, n, "push-pull", service.TimingSync, trials, cfg.seed(), 31, 0))
		}
	}
	return cells
}

func e04Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	cur := &cursor{results: results}
	tab := stats.NewTable("family", "n", "push q99", "pp q99", "ratio")
	ratiosBySize := map[string][]float64{}
	maxRatio := 0.0
	minRatio := 1e18
	for range e04Sizes(cfg) {
		for _, fam := range harness.RegularFamilies() {
			push := cur.next()
			pp := cur.next()
			pq := stats.Quantile(push.Times, 0.99)
			ppq := stats.Quantile(pp.Times, 0.99)
			ratio := pq / ppq
			ratiosBySize[fam.Name] = append(ratiosBySize[fam.Name], ratio)
			if ratio > maxRatio {
				maxRatio = ratio
			}
			if ratio < minRatio {
				minRatio = ratio
			}
			tab.AddRow(fam.Name, push.N, pq, ppq, ratio)
		}
	}
	if err := tab.Render(cfg.out()); err != nil {
		return nil, err
	}
	// The ratio should not grow with n: compare per-family growth.
	growthOK := true
	for _, fam := range sortedKeys(ratiosBySize) {
		rs := ratiosBySize[fam]
		if len(rs) >= 2 && rs[len(rs)-1] > 2.0*rs[0] {
			growthOK = false
			fmt.Fprintf(cfg.out(), "WARNING: %s push/pp ratio grew %0.2f -> %0.2f\n", fam, rs[0], rs[len(rs)-1])
		}
	}
	fmt.Fprintf(cfg.out(), "push/push-pull q99 ratios in [%.2f, %.2f]; Corollary 3 predicts Θ(1) and ≥ 1\n", minRatio, maxRatio)

	return &Outcome{
		Verdict: worst(atMost(maxRatio, 5, 12), holds(growthOK && minRatio >= 0.9, Borderline)),
		Summary: fmt.Sprintf("push/pp q99 ratios across regular families in [%.2f, %.2f], growth bounded: %v",
			minRatio, maxRatio, growthOK),
	}, nil
}
