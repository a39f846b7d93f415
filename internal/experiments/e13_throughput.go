package experiments

import (
	"fmt"

	"rumor/internal/core"
	"rumor/internal/service"
	"rumor/internal/stats"
)

// E13Throughput documents engine cost in exact, deterministic work
// units: clock ticks per completed run for the three asynchronous views
// and rounds per run for the synchronous engine, measured as
// engine-steps cells on one hypercube. All three asynchronous rows run
// the one Gillespie stepper — the views differ only in how it draws the
// actor — so their tick counts agree up to sampling noise.
// Work-unit counts are a pure function of the spec (cacheable and
// byte-identical across runs); wall-clock throughput is deliberately
// excluded here and tracked by the repeatable benchmark run instead
// (bench/run.sh; the printed pointer to BENCH_2.json below is part of
// the byte-pinned suite output and names that benchmark's ancestor).
func E13Throughput() Experiment {
	return Experiment{
		ID:     "E13",
		Title:  "Engine work units",
		Claim:  "Supporting: exact simulation cost across engine implementations.",
		Cells:  e13Cells,
		Reduce: e13Reduce,
	}
}

func e13Dim(cfg Config) int {
	if cfg.Quick {
		return 9
	}
	return 12
}

func e13Cells(cfg Config) []service.CellSpec {
	n := 1 << e13Dim(cfg)
	reps := cfg.pick(3, 1)
	var cells []service.CellSpec
	for i, view := range e10Views {
		c := service.CellSpec{
			Kind:      KindEngineSteps,
			Family:    "hypercube",
			N:         n,
			Protocol:  "push-pull",
			Timing:    service.TimingAsync,
			View:      view.String(),
			Trials:    reps,
			GraphSeed: cfg.seed(),
			TrialSeed: cfg.seed() + 110 + uint64(i),
		}
		cells = append(cells, c)
	}
	cells = append(cells, service.CellSpec{
		Kind:      KindEngineSteps,
		Family:    "hypercube",
		N:         n,
		Protocol:  "push-pull",
		Timing:    service.TimingSync,
		Trials:    reps,
		GraphSeed: cfg.seed(),
		TrialSeed: cfg.seed() + 114,
	})
	return cells
}

func e13Reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	cur := &cursor{results: results}
	tab := stats.NewTable("engine", "n", "trials", "total work units", "mean units/run", "units per node")
	var globalSteps float64
	var n int
	for _, view := range e10Views {
		res := cur.next()
		n = res.N
		total := sum(res.Times)
		if view == core.GlobalClock {
			globalSteps = total
		}
		tab.AddRow(fmt.Sprintf("async/%v", view), res.N, len(res.Times), total,
			stats.Mean(res.Times), total/float64(res.N)/float64(len(res.Times)))
	}
	syncRes := cur.next()
	tab.AddRow("sync/push-pull", syncRes.N, len(syncRes.Times), sum(syncRes.Times),
		stats.Mean(syncRes.Times), sum(syncRes.Times)/float64(syncRes.N)/float64(len(syncRes.Times)))
	if err := tab.Render(cfg.out()); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out(), "work units are exact and deterministic; see BENCH_2.json for wall-clock throughput\n")
	return &Outcome{
		ID: "E13", Title: "Engine work units", Verdict: Supported,
		Summary: fmt.Sprintf("global-clock async engine: %.3g ticks/run to complete hypercube n=%d", globalSteps/float64(len(syncRes.Times)), n),
	}, nil
}
