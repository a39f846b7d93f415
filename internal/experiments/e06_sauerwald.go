package experiments

import (
	"fmt"

	"rumor/internal/service"
	"rumor/internal/stats"
)

// e06Families are the regular AND irregular topologies the bound is
// checked on (all standard families, named so the reducer and the cell
// grid agree).
var e06Families = []string{"complete", "hypercube", "star", "binary-tree", "gnp", "pref-attach"}

// E06SyncPushVsAsyncPush checks the paper's observation (1) in Section 1
// (due to Sauerwald): for any graph, the synchronous push spreading time
// is bounded by the asynchronous push spreading time within a constant
// multiplicative factor (whp). We verify q99(sync push) / q99(async push)
// stays below a small constant on regular AND irregular families.
func E06SyncPushVsAsyncPush() Experiment {
	return Experiment{
		ID:     "E6",
		Title:  "Sync push ≤ O(async push)",
		Claim:  "§1 obs (1) [Sauerwald]: T_{1/n}(push) = O(T_{1/n}(push-a)) on any graph.",
		Cells:  e06Cells,
		Reduce: e06Reduce,
	}
}

func e06Cells(cfg Config) []service.CellSpec {
	n := cfg.pick(512, 128)
	trials := cfg.pick(120, 30)
	var cells []service.CellSpec
	for _, fam := range e06Families {
		cells = append(cells,
			timeCell(fam, n, "push", service.TimingSync, trials, cfg.seed(), 50, 0),
			timeCell(fam, n, "push", service.TimingAsync, trials, cfg.seed(), 51, 0))
	}
	return cells
}

func e06Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	cur := &cursor{results: results}
	tab := stats.NewTable("family", "n", "sync-push q99", "async-push q99", "ratio")
	maxRatio := 0.0
	worstFam := ""
	for _, fam := range e06Families {
		sync := cur.next()
		async := cur.next()
		sq := stats.Quantile(sync.Times, 0.99)
		aq := stats.Quantile(async.Times, 0.99)
		ratio := sq / aq
		if ratio > maxRatio {
			maxRatio = ratio
			worstFam = fam
		}
		tab.AddRow(fam, sync.N, sq, aq, ratio)
	}
	if err := tab.Render(cfg.out()); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out(), "max q99(sync push)/q99(async push) = %.2f (%s); Sauerwald predicts O(1)\n", maxRatio, worstFam)

	return &Outcome{
		Verdict: atMost(maxRatio, 4, 10),
		Summary: fmt.Sprintf("max q99(sync push)/q99(async push) = %.2f (%s)", maxRatio, worstFam),
	}, nil
}
