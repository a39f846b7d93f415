package harness

import (
	"rumor/internal/core"
	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// Measurement is a sample of spreading times with its configuration.
type Measurement struct {
	// Times holds one spreading time per trial: rounds for synchronous
	// processes, continuous time units for asynchronous ones.
	Times []float64
	// Graph identifies the instance measured.
	Graph *graph.Graph
	// Source is the rumor source used in every trial.
	Source graph.NodeID
}

// measure runs trials of one scenario on g (cfg's type is the timing)
// and returns the per-trial times and, indexed [frac][trial], the
// earliest times at which each fraction of all nodes was informed (one
// simulation and one sort per trial serve all fractions).
//
// One completeness rule for every caller: with no fractions requested
// the times are spreading times, so a trial that leaves a node
// uninformed (a disconnected graph) is an error; a coverage query
// tolerates partial spread and reports unreached fractions as -1.
func measure[C core.SyncConfig | core.AsyncConfig](g *graph.Graph, src graph.NodeID, cfg C, variant core.PPVariant, fracs []float64, trials int, seed uint64, workers int) ([]float64, [][]float64, error) {
	if trials < 1 {
		return nil, nil, ErrNoTrials
	}
	profile := make([][]float64, len(fracs))
	for i := range profile {
		profile[i] = make([]float64, trials)
	}
	r := Runner{Trials: trials, Seed: seed, Workers: workers}
	times, err := r.Run(func(t int, rng *xrand.RNG) (float64, error) {
		trial, err := core.NewTrial(graph.NewStatic(g), src, cfg, variant, false)
		if err != nil {
			return 0, err
		}
		out, err := trial.Run(rng)
		if err != nil {
			return 0, err
		}
		if len(fracs) == 0 {
			return out.SpreadingTime()
		}
		for i, v := range out.Coverage(fracs) {
			profile[i][t] = v
		}
		return out.Time(), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return times, profile, nil
}

// spreadingTimes samples the scenario's spreading time.
func spreadingTimes[C core.SyncConfig | core.AsyncConfig](g *graph.Graph, src graph.NodeID, cfg C, variant core.PPVariant, trials int, seed uint64, workers int) (*Measurement, error) {
	times, _, err := measure(g, src, cfg, variant, nil, trials, seed, workers)
	if err != nil {
		return nil, err
	}
	return &Measurement{Times: times, Graph: g, Source: src}, nil
}

// MeasureSync samples the synchronous spreading time T(pp/push/pull, G, u)
// over the given number of trials.
func MeasureSync(g *graph.Graph, src graph.NodeID, p core.Protocol, trials int, seed uint64, workers int) (*Measurement, error) {
	return spreadingTimes(g, src, core.SyncConfig{Protocol: p}, 0, trials, seed, workers)
}

// MeasureAsync samples the asynchronous spreading time T(pp-a/..., G, u)
// using the (fast) global-clock view.
func MeasureAsync(g *graph.Graph, src graph.NodeID, p core.Protocol, trials int, seed uint64, workers int) (*Measurement, error) {
	return MeasureAsyncView(g, src, p, core.GlobalClock, trials, seed, workers)
}

// MeasureAsyncView is MeasureAsync with an explicit process view.
func MeasureAsyncView(g *graph.Graph, src graph.NodeID, p core.Protocol, view core.AsyncView, trials int, seed uint64, workers int) (*Measurement, error) {
	return spreadingTimes(g, src, core.AsyncConfig{Protocol: p, View: view}, 0, trials, seed, workers)
}

// MeasurePPVariant samples the spreading time of ppx or ppy.
func MeasurePPVariant(g *graph.Graph, src graph.NodeID, v core.PPVariant, trials int, seed uint64, workers int) (*Measurement, error) {
	return spreadingTimes(g, src, core.SyncConfig{}, v, trials, seed, workers)
}

// MeasureAsyncCoverage samples the earliest time at which a fraction frac
// of all nodes is informed under the asynchronous process.
func MeasureAsyncCoverage(g *graph.Graph, src graph.NodeID, p core.Protocol, frac float64, trials int, seed uint64, workers int) (*Measurement, error) {
	profile, err := MeasureAsyncCoverageProfile(g, src, p, []float64{frac}, trials, seed, workers)
	if err != nil {
		return nil, err
	}
	return &Measurement{Times: profile[0], Graph: g, Source: src}, nil
}

// MeasureAsyncCoverageProfile samples, for every fraction in fracs, the
// earliest time at which that fraction of all nodes is informed under the
// asynchronous process. The result is indexed [frac][trial].
func MeasureAsyncCoverageProfile(g *graph.Graph, src graph.NodeID, p core.Protocol, fracs []float64, trials int, seed uint64, workers int) ([][]float64, error) {
	_, profile, err := measure(g, src, core.AsyncConfig{Protocol: p}, 0, fracs, trials, seed, workers)
	return profile, err
}

// MeasureSyncCoverage samples the earliest round at which a fraction frac
// of all nodes is informed under the synchronous process.
func MeasureSyncCoverage(g *graph.Graph, src graph.NodeID, p core.Protocol, frac float64, trials int, seed uint64, workers int) (*Measurement, error) {
	profile, err := MeasureSyncCoverageProfile(g, src, p, []float64{frac}, trials, seed, workers)
	if err != nil {
		return nil, err
	}
	return &Measurement{Times: profile[0], Graph: g, Source: src}, nil
}

// MeasureSyncCoverageProfile is MeasureAsyncCoverageProfile for the
// synchronous process; times are (integer) round numbers.
func MeasureSyncCoverageProfile(g *graph.Graph, src graph.NodeID, p core.Protocol, fracs []float64, trials int, seed uint64, workers int) ([][]float64, error) {
	_, profile, err := measure(g, src, core.SyncConfig{Protocol: p}, 0, fracs, trials, seed, workers)
	return profile, err
}
