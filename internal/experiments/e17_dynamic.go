package experiments

import (
	"fmt"

	"rumor/internal/service"
	"rumor/internal/stats"
)

// e17N is the instance size. Large enough that ln n / n sits clearly in
// the sparse regime, small enough that re-sampling a fresh G(n,p) every
// round stays cheap.
const e17N = 256

// e17Scenarios are the dynamic scenarios compared against the static
// baseline on the same above-threshold G(n,p) base graph. Each runs
// once per timing (sync rounds, async time units).
var e17Scenarios = []struct {
	name  string
	mut   func(c *service.CellSpec)
	ratio float64 // max tolerated mean slowdown vs the static baseline
}{
	{name: "static", mut: func(c *service.CellSpec) {}, ratio: 1},
	{name: "resample", mut: func(c *service.CellSpec) {
		c.Dynamic = service.DynamicResample
		c.DynamicPeriod = 1
	}, ratio: 4},
	{name: "perturb", mut: func(c *service.CellSpec) {
		c.Dynamic = service.DynamicPerturb
		c.DynamicPeriod = 1
		c.PerturbRate = 0.2
	}, ratio: 4},
	{name: "churn", mut: func(c *service.CellSpec) {
		c.Churn = e17ChurnSchedule()
	}, ratio: 4},
}

// e17ChurnSchedule takes a tenth of the nodes down early and brings
// them back later, half of them with their state dropped (an amnesiac
// rejoin). The rumor must survive the outage and re-inform the
// amnesiacs, but every node is eventually up, so full coverage remains
// reachable.
func e17ChurnSchedule() []service.ChurnSpec {
	var churn []service.ChurnSpec
	for i := 0; i < e17N/10; i++ {
		node := 3 + 10*i // skip the source at node 0
		churn = append(churn,
			service.ChurnSpec{Node: node, Time: 2, Op: service.ChurnOpLeave},
			service.ChurnSpec{Node: node, Time: 8, Op: service.ChurnOpJoin, DropState: i%2 == 0},
		)
	}
	return churn
}

// E17DynamicChurn exercises the v3 scenario fields end to end: rumor
// spreading on time-varying G(n,p) topologies (fresh re-sampling each
// round and edge-Markovian perturbation) and under node churn, in both
// the synchronous and asynchronous timings. The paper's robustness
// intuition — push-pull's spreading time degrades gracefully when the
// network changes under it — predicts finite means within a small
// constant factor of the static baseline. A re-sampling sequence at the
// connectivity threshold additionally checks that coverage emerges
// across epochs even though single snapshots may be disconnected.
func E17DynamicChurn() Experiment {
	return Experiment{
		ID:     "E17",
		Title:  "Dynamic graphs and churn",
		Claim:  "Push-pull stays within a constant factor of its static spreading time under per-round re-sampling, edge perturbation, and node churn (cf. Pourmiri-Mans; Giakkoupis-Nazari-Woelfel robustness).",
		Cells:  e17Cells,
		Reduce: e17Reduce,
	}
}

var e17Timings = []string{service.TimingSync, service.TimingAsync}

func e17Cells(cfg Config) []service.CellSpec {
	trials := cfg.pick(200, 40)
	var cells []service.CellSpec
	for ti, timing := range e17Timings {
		for si, sc := range e17Scenarios {
			c := timeCell("gnp-above-threshold", e17N, "push-pull", timing, trials, cfg.seed(), 170+uint64(10*ti+si), 0)
			sc.mut(&c)
			cells = append(cells, c)
		}
	}
	// Re-sampling at the connectivity threshold: the base snapshot may
	// be disconnected, so only the dynamic sequence can inform everyone.
	for ti, timing := range e17Timings {
		c := timeCell("gnp-threshold", e17N, "push-pull", timing, trials, cfg.seed(), 190+uint64(ti), 0)
		c.Dynamic = service.DynamicResample
		c.DynamicPeriod = 1
		cells = append(cells, c)
	}
	return cells
}

func e17Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	cur := &cursor{results: results}
	tab := stats.NewTable("timing", "scenario", "mean T", "ratio vs static", "q100")
	var checks []Verdict
	var worstRatio float64
	for _, timing := range e17Timings {
		var static float64
		for _, sc := range e17Scenarios {
			r := cur.next()
			mean := stats.Mean(r.Times)
			if sc.name == "static" {
				static = mean
			}
			ratio := mean / static
			q100 := r.Coverage[service.CoverageName(1)]
			tab.AddRow(timing, sc.name, mean, ratio, q100)
			if ratio > worstRatio {
				worstRatio = ratio
			}
			// A generous band: dynamic push-pull should neither stall
			// (unbounded mean, q100 = -1) nor beat the baseline by more
			// than sampling noise allows.
			checks = append(checks, atMost(ratio, sc.ratio, 4*sc.ratio), holds(q100 >= 0, Failed))
		}
	}
	thresholdOK := true
	for _, timing := range e17Timings {
		r := cur.next()
		mean := stats.Mean(r.Times)
		q100 := r.Coverage[service.CoverageName(1)]
		tab.AddRow(timing, "resample@threshold", mean, "-", q100)
		// Snapshots at ln n / n are near-disconnected, yet the union of
		// re-sampled epochs must carry the rumor everywhere.
		thresholdOK = thresholdOK && q100 >= 0
	}
	if err := tab.Render(cfg.out()); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out(), "worst dynamic/static mean ratio = %.2f; graceful degradation predicts a small constant\n", worstRatio)
	coverage := "reaches full coverage"
	if !thresholdOK {
		coverage = "misses full coverage in some trial"
	}
	return &Outcome{
		Verdict: worst(append(checks, holds(thresholdOK, Failed))...),
		Summary: fmt.Sprintf("dynamic/static mean ratio <= %.2f across %d scenarios x 2 timings; threshold re-sampling %s", worstRatio, len(e17Scenarios)-1, coverage),
	}, nil
}
