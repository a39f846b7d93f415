package experiments

import (
	"fmt"
	"math"

	"rumor/internal/service"
	"rumor/internal/stats"
)

// E01Star reproduces the paper's Section 1 star-graph example:
//
//   - synchronous push-pull informs all nodes within 2 rounds (one round
//     for the center to be informed via push from the source leaf, one
//     more for every leaf to pull);
//   - asynchronous push-pull needs Θ(log n) time (enough distinct Poisson
//     clocks must tick);
//   - synchronous push(-only) needs Θ(n log n) rounds (the center must
//     push to every leaf individually — coupon collection).
func E01Star() Experiment {
	return Experiment{
		ID:     "E1",
		Title:  "Star graph anomaly",
		Claim:  "§1: star: sync pp ≤ 2 rounds; async pp = Θ(log n); sync push = Θ(n log n).",
		Cells:  e01Cells,
		Reduce: e01Reduce,
	}
}

func e01Sizes(cfg Config) (sizes, pushSizes []int) {
	if cfg.Quick {
		return []int{128, 512}, []int{64, 256}
	}
	return []int{256, 1024, 4096, 16384}, []int{128, 512, 2048}
}

func e01Cells(cfg Config) []service.CellSpec {
	sizes, pushSizes := e01Sizes(cfg)
	trials := cfg.pick(200, 50)
	pushTrials := cfg.pick(60, 15)
	var cells []service.CellSpec
	for _, n := range sizes {
		// Source = a leaf: the paper's worst case (center first needs to
		// be informed by push).
		cells = append(cells,
			timeCell("star", n, "push-pull", service.TimingSync, trials, cfg.seed(), 0, 1),
			timeCell("star", n, "push-pull", service.TimingAsync, trials, cfg.seed(), 1, 1))
	}
	for _, n := range pushSizes {
		cells = append(cells,
			timeCell("star", n, "push", service.TimingSync, pushTrials, cfg.seed(), 2, 0))
	}
	return cells
}

func e01Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	sizes, pushSizes := e01Sizes(cfg)
	cur := &cursor{results: results}

	tab := stats.NewTable("n", "sync-pp q99 (≤2?)", "async-pp mean", "async-pp q99", "ln n")
	var ns, asyncMeans []float64
	syncOK := true
	for range sizes {
		syncRes := cur.next()
		asyncRes := cur.next()
		n := syncRes.N
		sq99 := stats.Quantile(syncRes.Times, 0.99)
		am := stats.Mean(asyncRes.Times)
		aq99 := stats.Quantile(asyncRes.Times, 0.99)
		if sq99 > 2 {
			syncOK = false
		}
		ns = append(ns, float64(n))
		asyncMeans = append(asyncMeans, am)
		tab.AddRow(n, sq99, am, aq99, math.Log(float64(n)))
	}
	if err := tab.Render(cfg.out()); err != nil {
		return nil, err
	}

	// Logarithmic fit of the async mean.
	_, b, r2, err := stats.FitLogarithmic(ns, asyncMeans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out(), "async-pp mean ≈ a + b·ln n: b=%.3f R²=%.3f (paper: Θ(log n))\n\n", b, r2)
	asyncOK := b > 0.2 && r2 > 0.9

	// Sync push: coupon collection by the center.
	pushTab := stats.NewTable("n", "sync-push mean rounds", "n·ln n", "mean / (n ln n)")
	var pns, pmeans []float64
	for range pushSizes {
		res := cur.next()
		n := res.N
		mean := stats.Mean(res.Times)
		nln := float64(n) * math.Log(float64(n))
		pns = append(pns, float64(n))
		pmeans = append(pmeans, mean)
		pushTab.AddRow(n, mean, nln, mean/nln)
	}
	if err := pushTab.Render(cfg.out()); err != nil {
		return nil, err
	}
	fit, err := stats.FitPowerLaw(pns, pmeans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out(), "sync-push mean ≈ C·n^α: α=%.3f R²=%.3f (paper: Θ(n log n), i.e. α slightly above 1)\n", fit.Alpha, fit.R2)
	pushOK := fit.Alpha > 0.85 && fit.Alpha < 1.35 && fit.R2 > 0.95

	return &Outcome{
		Verdict: worst(holds(syncOK, Failed), holds(asyncOK && pushOK, Borderline)),
		Summary: fmt.Sprintf("sync-pp q99 ≤ 2: %v; async log-fit slope %.2f (R²=%.2f); push power-fit α=%.2f",
			syncOK, b, r2, fit.Alpha),
	}, nil
}
