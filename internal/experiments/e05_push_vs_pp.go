package experiments

import (
	"fmt"

	"rumor/internal/harness"
	"rumor/internal/service"
	"rumor/internal/stats"
)

// E05AsyncPushVsPushPull checks the paper's observation (2) in Section 1:
// on regular graphs, the asynchronous push(-only) spreading time has the
// same distribution as TWICE the asynchronous push-pull spreading time.
// (On a d-regular graph the rumor crosses an informed→uninformed edge at
// rate 1/d under push and at rate 2/d under push-pull, so the processes
// are exact time-rescalings of each other.) We compare the push sample
// against the doubled push-pull sample with a two-sample KS test.
func E05AsyncPushVsPushPull() Experiment {
	return Experiment{
		ID:     "E5",
		Title:  "Async push ~ 2× async push-pull (regular)",
		Claim:  "§1 obs (2): on regular graphs, T(push-a) =d 2·T(pp-a).",
		Cells:  e05Cells,
		Reduce: e05Reduce,
	}
}

// e05Size shrinks the cycle: its Θ(n) spreading time makes 400 trials
// expensive at n=512.
func e05Size(fam string, n int) int {
	if fam == "cycle" {
		return n / 2
	}
	return n
}

func e05Cells(cfg Config) []service.CellSpec {
	n := cfg.pick(512, 128)
	trials := cfg.pick(400, 100)
	var cells []service.CellSpec
	for _, fam := range harness.RegularFamilies() {
		size := e05Size(fam.Name, n)
		cells = append(cells,
			timeCell(fam.Name, size, "push", service.TimingAsync, trials, cfg.seed(), 40, 0),
			timeCell(fam.Name, size, "push-pull", service.TimingAsync, trials, cfg.seed(), 41, 0))
	}
	return cells
}

func e05Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	cur := &cursor{results: results}
	tab := stats.NewTable("family", "n", "E[push-a]", "2·E[pp-a]", "mean ratio", "KS stat", "KS p")
	minP := 1.0
	worstFam := ""
	for _, fam := range harness.RegularFamilies() {
		push := cur.next()
		pp := cur.next()
		doubled := make([]float64, len(pp.Times))
		for i, v := range pp.Times {
			doubled[i] = 2 * v
		}
		ks := stats.KolmogorovSmirnov(push.Times, doubled)
		if ks.PValue < minP {
			minP = ks.PValue
			worstFam = fam.Name
		}
		pm := stats.Mean(push.Times)
		dm := stats.Mean(doubled)
		tab.AddRow(fam.Name, push.N, pm, dm, pm/dm*2, ks.Statistic, ks.PValue)
	}
	if err := tab.Render(cfg.out()); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out(), "min KS p-value %.4f (%s); identity predicts large p-values\n", minP, worstFam)

	return &Outcome{
		Verdict: atLeast(minP, 0.005, 1e-6),
		Summary: fmt.Sprintf("KS test of T(push-a) vs 2·T(pp-a): min p = %.4f across regular families", minP),
	}, nil
}
