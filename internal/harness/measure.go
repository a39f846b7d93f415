package harness

import (
	"context"

	"rumor/internal/core"
	"rumor/internal/graph"
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

// spreadingTimes samples the spreading time of one scenario on g (cfg's
// type is the timing). A trial that leaves a node uninformed (a
// disconnected graph) is an error: the spreading time there is infinite.
func spreadingTimes[C core.SyncConfig | core.AsyncConfig](g *graph.Graph, src graph.NodeID, cfg C, variant core.PPVariant, trials int, seed uint64, workers int) (*Measurement, error) {
	r := Runner{Trials: trials, Seed: seed, Workers: workers}
	times, err := r.RunTrials(context.Background(), func() (*core.Trial, error) {
		return core.NewTrial(graph.NewStatic(g), src, cfg, variant, false)
	}, func(_ int, out core.Outcome, err error) (float64, error) {
		if err != nil {
			return 0, err
		}
		return out.SpreadingTime()
	})
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
