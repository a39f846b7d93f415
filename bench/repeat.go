package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
)

// repeatRuns is the size of a set: the benchmark's checker takes ten
// runs of a workload, each at another seed.
const repeatRuns = 10

// repeatSet is one full set of runs: per workload, repeatRuns end-to-end
// runs at consecutive seeds (what the benchmark's checker does), and one
// traced run for the counts that must repeat exactly.
type repeatSet struct {
	values map[string]map[string][]float64 // workload -> metric -> one value per run
	exact  map[string]map[string]float64   // workload -> count (seed-qualified) -> value
}

func runSet(e *env, selected []workloadSpec) (*repeatSet, error) {
	set := &repeatSet{
		values: map[string]map[string][]float64{},
		exact:  map[string]map[string]float64{},
	}
	for _, ws := range selected {
		values, exact := map[string][]float64{}, map[string]float64{}
		set.values[ws.Name], set.exact[ws.Name] = values, exact
		// keep takes one run's report: a failed check ends the set.
		keep := func(seed uint64, rep *report, err error) error {
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s: seed %d: %d of %d checked operations failed", ws.Name, seed, rep.Failed, rep.Attempted)
			}
			for name, v := range rep.exact {
				exact[fmt.Sprintf("%s @seed %d", name, seed)] = v
			}
			return nil
		}
		for i := 0; i < repeatRuns; i++ {
			runtime.GC()
			run := *e
			run.seed = e.seed + uint64(i)
			rep, err := runEndToEnd(&run, ws)
			if err := keep(run.seed, rep, err); err != nil {
				return nil, err
			}
			for name, v := range rep.Metrics {
				values[name] = append(values[name], v.Value)
			}
			for name, v := range rep.layer {
				values[name] = append(values[name], v)
			}
		}
		runtime.GC()
		rep, err := runTraced(e, ws, "")
		if err := keep(e.seed, rep, err); err != nil {
			return nil, err
		}
		e.notef("%s: set of %d runs and a traced run done", ws.Name, repeatRuns)
	}
	return set, nil
}

// runCheckRepeat runs two sets back to back on the same code and says,
// per end-to-end metric and workload, whether they agree: each set's
// quartile spread within the metric's bound, and the two medians within
// the bound of each other, in either direction — a second set that reads
// a third better than the first on unchanged code is as much a failure
// to repeat as one that reads a third worse. Exact-marked counts must
// match exactly. Anything else is unresolved, and fails the command.
// Per-layer values that the timed sections measure as a by-product are
// listed with their shift and no verdict: they have no bound.
func runCheckRepeat(e *env, selected []workloadSpec, stdout io.Writer) int {
	var sets [2]*repeatSet
	for i := range sets {
		var err error
		if sets[i], err = runSet(e, selected); err != nil {
			fmt.Fprintln(e.notes, "bench:", err)
			return 1
		}
	}
	shift := func(a, b []float64) float64 { return (median(b) - median(a)) / median(a) }
	unresolved := 0
	fmt.Fprintf(stdout, "%-22s %-22s %-38s %-38s %8s %6s  %s\n", "workload", "metric",
		"first: median [q1, q3] spread", "second: median [q1, q3] spread", "shift", "bound", "verdict")
	for _, ws := range selected {
		first, second := sets[0].values[ws.Name], sets[1].values[ws.Name]
		for _, m := range endToEnd {
			a, b := first[m.Name], second[m.Name]
			by := shift(a, b)
			verdict := "agree"
			// setup_s is held to its median only: it is a handful of
			// short set-ups per run, and its spread is not bounded.
			spreadOK := m.Name == mSetup || (spread(a) <= m.Bound && spread(b) <= m.Bound)
			if !spreadOK || !(math.Abs(by) <= m.Bound) {
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(stdout, "%-22s %-22s %-38s %-38s %+7.1f%% %5.0f%%  %s\n", ws.Name, m.Name,
				describe(a), describe(b), by*100, m.Bound*100, verdict)
		}
		for _, m := range perLayer {
			if a, ok := first[m.Name]; ok {
				fmt.Fprintf(stdout, "%-22s %-22s %-38s %-38s %+7.1f%%\n", ws.Name, m.Name,
					describe(a), describe(second[m.Name]), shift(a, second[m.Name])*100)
			}
		}
		names := make([]string, 0, len(sets[0].exact[ws.Name]))
		for name := range sets[0].exact[ws.Name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a := sets[0].exact[ws.Name][name]
			b, ok := sets[1].exact[ws.Name][name]
			verdict := "exact"
			if !ok || a != b {
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(stdout, "%-22s %-51s %16.10g %16.10g  %s\n", ws.Name, name, a, b, verdict)
		}
	}
	if unresolved > 0 {
		fmt.Fprintf(stdout, "%d unresolved\n", unresolved)
		return 1
	}
	fmt.Fprintln(stdout, "two sets of the same code agree")
	return 0
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] %.1f%%", median(xs), q1, q3, spread(xs)*100)
}
