package service

import (
	"rumor/internal/graph"
	"rumor/internal/harness"
)

// perturbSeedSalt derives the perturb evolution seed from the cell's
// graph seed; it keeps the perturb stream disjoint from the resample
// epoch seeds mixSeed(GraphSeed, e).
const perturbSeedSalt uint64 = 0x64796e2d70657274 // "dyn-pert"

// topology returns a factory of the cell's topology Providers over base
// graph g. Dynamic providers are stateful cursors, so each pooled trial
// owns one; every provider from one factory replays the identical graph
// sequence — a pure function of (Family, N, GraphSeed, Dynamic,
// DynamicPeriod, PerturbRate) and never of the trial — which is what
// keeps dynamic cells cacheable. A static cell's provider is the
// stateless graph.Static, which the engines unwrap onto their static
// fast path.
func topology(cell CellSpec, g *graph.Graph) (func() (graph.Provider, error), error) {
	switch cell.Dynamic {
	case DynamicResample:
		// The family was already resolved by Validate and BuildGraph.
		fam, err := harness.FamilyByName(cell.Family)
		if err != nil {
			return nil, err
		}
		period := cell.effectiveDynamicPeriod()
		return func() (graph.Provider, error) {
			return graph.NewResample(g, period, func(epoch uint64) (*graph.Graph, error) {
				return fam.Build(cell.N, mixSeed(cell.GraphSeed, epoch))
			})
		}, nil
	case DynamicPerturb:
		period := cell.effectiveDynamicPeriod()
		seed := mixSeed(cell.GraphSeed, perturbSeedSalt)
		return func() (graph.Provider, error) {
			return graph.NewPerturb(g, period, cell.PerturbRate, seed)
		}, nil
	default:
		static := graph.NewStatic(g)
		return func() (graph.Provider, error) { return static, nil }, nil
	}
}
