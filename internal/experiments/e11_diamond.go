package experiments

import (
	"fmt"
	"math"

	"rumor/internal/service"
	"rumor/internal/stats"
)

// E11DiamondChain reproduces the extremal-gap example quoted in Section 1
// (Acan et al.): a graph family where asynchronous push-pull finishes in
// polylogarithmic time while synchronous push-pull needs Θ(n^{1/3})
// rounds — and verifies that the measured gap growth stays below the
// sqrt(n) cap that Theorem 2 imposes.
//
// The family is DiamondChain(k, k²): k diamonds in series, each with
// m = k² parallel length-2 paths, n ≈ k³. Synchronous push-pull pays ≥ 2
// rounds per diamond (hop distance 2k = 2n^{1/3}); asynchronous crossing
// of one diamond takes Θ(1/√m) = Θ(1/k) expected time, so the whole chain
// takes Θ(1) + O(log n) time. Cells target the "diamond" family at
// n = k³, which DiamondChainForSize rounds back to exactly (k, k²).
func E11DiamondChain() Experiment {
	return Experiment{
		ID:     "E11",
		Title:  "Diamond chain: polylog async vs n^(1/3) sync",
		Claim:  "§1 [1]: a graph with async polylog vs sync Θ(n^{1/3}); Thm 2 caps the gap at √n·polylog.",
		Cells:  e11Cells,
		Reduce: e11Reduce,
	}
}

func e11Ks(cfg Config) []int {
	if cfg.Quick {
		return []int{5, 7, 9}
	}
	return []int{6, 8, 11, 16}
}

func e11Cells(cfg Config) []service.CellSpec {
	trials := cfg.pick(80, 25)
	var cells []service.CellSpec
	for _, k := range e11Ks(cfg) {
		n := k * k * k
		cells = append(cells,
			timeCell("diamond", n, "push-pull", service.TimingSync, trials, cfg.seed(), 90, 0),
			timeCell("diamond", n, "push-pull", service.TimingAsync, trials, cfg.seed(), 91, 0))
	}
	return cells
}

func e11Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	cur := &cursor{results: results}
	tab := stats.NewTable("k", "m=k²", "n", "E[sync] rounds", "E[async] time", "sync/async", "√n", "2k (diam)")
	var ns, syncMeans, asyncMeans []float64
	gapBelowSqrtN := true
	for _, k := range e11Ks(cfg) {
		sync := cur.next()
		async := cur.next()
		n := sync.N
		sm := stats.Mean(sync.Times)
		am := stats.Mean(async.Times)
		if sm/am > math.Sqrt(float64(n))*math.Log(float64(n)) {
			gapBelowSqrtN = false
		}
		ns = append(ns, float64(n))
		syncMeans = append(syncMeans, sm)
		asyncMeans = append(asyncMeans, am)
		tab.AddRow(k, k*k, n, sm, am, sm/am, math.Sqrt(float64(n)), 2*k)
	}
	if err := tab.Render(cfg.out()); err != nil {
		return nil, err
	}
	syncFit, err := stats.FitPowerLaw(ns, syncMeans)
	if err != nil {
		return nil, err
	}
	asyncFit, err := stats.FitPowerLaw(ns, asyncMeans)
	if err != nil {
		return nil, err
	}
	gap := syncFit.Alpha - asyncFit.Alpha
	fmt.Fprintf(cfg.out(),
		"sync rounds ≈ C·n^%.3f (R²=%.3f; paper: 1/3)\nasync time ≈ C·n^%.3f (R²=%.3f; paper: ~0, polylog)\ngap exponent %.3f (Theorem 2 cap: 0.5)\n",
		syncFit.Alpha, syncFit.R2, asyncFit.Alpha, asyncFit.R2, gap)

	syncOK := syncFit.Alpha > 0.22 && syncFit.Alpha < 0.45
	asyncOK := asyncFit.Alpha < 0.2
	gapCmp := "≥"
	if gap < 0.5 {
		gapCmp = "<"
	}
	return &Outcome{
		Verdict: worst(holds(syncOK && asyncOK, Borderline), holds(gap < 0.5 && gapBelowSqrtN, Failed)),
		Summary: fmt.Sprintf("sync exponent %.2f (want ~0.33), async exponent %.2f (want ~0), gap %.2f %s 0.5",
			syncFit.Alpha, asyncFit.Alpha, gap, gapCmp),
	}, nil
}
