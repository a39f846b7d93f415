package harness

import (
	"fmt"
	"math"
	"slices"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// Family is a named graph family that can be instantiated at (roughly) a
// target size. Random families derive their randomness from the seed, so
// instances are reproducible.
type Family struct {
	// Name identifies the family in reports ("hypercube", "gnp", ...).
	Name string
	// Regular reports whether instances are regular graphs (used by the
	// experiments for Corollary 3, which applies to regular graphs only).
	Regular bool
	// MaybeDisconnected reports that instances are not guaranteed
	// connected (the at/below-threshold G(n,p) presets). Such families
	// are meant for dynamic re-sampling scenarios, where connectivity
	// emerges across epochs; static spreading on an instance may stall.
	MaybeDisconnected bool
	// Build returns a connected instance with approximately n nodes.
	// The actual size may be rounded (e.g. hypercubes to powers of two).
	Build func(n int, seed uint64) (*graph.Graph, error)
	// Edges estimates the edge count of Build(n, ·)'s instance, at the
	// size it rounds to, within a factor of 2 and nondecreasing in n.
	// Admission sizes a cell's adjacency by it before building anything.
	Edges func(n int) float64
}

// StandardFamilies returns the graph families exercised by the
// experiments: classical topologies, random graphs, social-network
// models, and the adversarial diamond chain. The slice is the caller's
// own copy.
func StandardFamilies() []Family { return slices.Clone(standardFamilies) }

// standardFamilies is the family table, built once: every cell
// validation and graph build looks a name up in it.
var standardFamilies = []Family{
	{Name: "complete", Regular: true, Build: func(n int, _ uint64) (*graph.Graph, error) {
		return graph.Complete(n)
	}, Edges: func(n int) float64 { return pairs(n) }},
	{Name: "star", Build: func(n int, _ uint64) (*graph.Graph, error) {
		return graph.Star(n)
	}, Edges: func(n int) float64 { return float64(n - 1) }},
	{Name: "cycle", Regular: true, Build: func(n int, _ uint64) (*graph.Graph, error) {
		return graph.Cycle(n)
	}, Edges: func(n int) float64 { return float64(n) }},
	{Name: "hypercube", Regular: true, Build: func(n int, _ uint64) (*graph.Graph, error) {
		return graph.Hypercube(hypercubeDim(n))
	}, Edges: func(n int) float64 {
		dim := hypercubeDim(n)
		return float64(dim) * math.Ldexp(1, dim-1)
	}},
	{Name: "torus", Regular: true, Build: func(n int, _ uint64) (*graph.Graph, error) {
		side := torusSide(n)
		return graph.Grid(side, side, true)
	}, Edges: func(n int) float64 {
		side := float64(torusSide(n))
		return 2 * side * side
	}},
	{Name: "binary-tree", Build: func(n int, _ uint64) (*graph.Graph, error) {
		return graph.CompleteKAryTree(n, 2)
	}, Edges: func(n int) float64 { return float64(n - 1) }},
	{Name: "random-regular", Regular: true, Build: func(n int, seed uint64) (*graph.Graph, error) {
		if n%2 == 1 {
			n++ // n*d must be even for odd d
		}
		return graph.RandomRegular(n, 5, xrand.New(seed))
	}, Edges: func(n int) float64 { return 2.5 * float64(n+n%2) }},
	{Name: "gnp", Build: func(n int, seed uint64) (*graph.Graph, error) {
		return graph.GNPConnected(n, gnpProb(n, 3), xrand.New(seed), 100)
	}, Edges: func(n int) float64 { return gnpProb(n, 3) * pairs(n) }},
	// The three G(n,p) presets around the connectivity threshold
	// p = ln n / n, for the dynamic-graph experiments. At and below
	// the threshold an instance may be disconnected, which is the
	// point: under per-epoch re-sampling the union of epochs is
	// connected in law even when no single epoch is.
	{Name: "gnp-threshold", MaybeDisconnected: true, Build: func(n int, seed uint64) (*graph.Graph, error) {
		return graph.GNP(n, gnpProb(n, 1), xrand.New(seed))
	}, Edges: func(n int) float64 { return gnpProb(n, 1) * pairs(n) }},
	{Name: "gnp-below-threshold", MaybeDisconnected: true, Build: func(n int, seed uint64) (*graph.Graph, error) {
		return graph.GNP(n, gnpProb(n, 0.5), xrand.New(seed))
	}, Edges: func(n int) float64 { return gnpProb(n, 0.5) * pairs(n) }},
	{Name: "gnp-above-threshold", Build: func(n int, seed uint64) (*graph.Graph, error) {
		return graph.GNPConnected(n, gnpProb(n, 2), xrand.New(seed), 100)
	}, Edges: func(n int) float64 { return gnpProb(n, 2) * pairs(n) }},
	// Chung–Lu weights 4(n/i)^(2/3) average 12: about 6n edges.
	{Name: "powerlaw", Build: func(n int, seed uint64) (*graph.Graph, error) {
		g, err := graph.ChungLuPowerLaw(n, 2.5, 4, xrand.New(seed))
		if err != nil {
			return nil, err
		}
		lcc, _, err := graph.LargestComponent(g)
		if err != nil {
			return nil, err
		}
		if lcc.NumNodes() < n/2 {
			return nil, fmt.Errorf("harness: powerlaw giant component too small (%d of %d)", lcc.NumNodes(), n)
		}
		return lcc, nil
	}, Edges: func(n int) float64 { return 6 * float64(n) }},
	{Name: "pref-attach", Build: func(n int, seed uint64) (*graph.Graph, error) {
		return graph.PreferentialAttachment(n, 3, xrand.New(seed))
	}, Edges: func(n int) float64 { return 3 * float64(n) }},
	// k diamonds of n/k middles, two edges per middle.
	{Name: "diamond", Build: func(n int, _ uint64) (*graph.Graph, error) {
		return graph.DiamondChainForSize(n)
	}, Edges: func(n int) float64 { return 2 * float64(n) }},
}

// hypercubeDim is the dimension of the hypercube family's instance at n:
// the power of two nearest n, at least 2.
func hypercubeDim(n int) int {
	return max(int(math.Round(math.Log2(float64(n)))), 1)
}

// torusSide is the side of the torus family's square instance at n: the
// nearest square, at least 3 x 3.
func torusSide(n int) int {
	return max(int(math.Round(math.Sqrt(float64(n)))), 3)
}

// gnpProb is the edge probability c ln(n) / n of the G(n,p) presets,
// clamped into [0, 1].
func gnpProb(n int, c float64) float64 {
	return clampProb(c * math.Log(float64(n)) / float64(n))
}

// pairs is the number of node pairs, n(n-1)/2.
func pairs(n int) float64 { return float64(n) * float64(n-1) / 2 }

// clampProb clamps an edge probability into [0, 1].
func clampProb(p float64) float64 {
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}

// RegularFamilies filters StandardFamilies to regular graphs.
func RegularFamilies() []Family {
	var out []Family
	for _, f := range standardFamilies {
		if f.Regular {
			out = append(out, f)
		}
	}
	return out
}

// FamilyByName returns the standard family with the given name.
func FamilyByName(name string) (Family, error) {
	for _, f := range standardFamilies {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("harness: unknown graph family %q", name)
}

// FamilyNames lists the names of the standard families.
func FamilyNames() []string {
	names := make([]string, len(standardFamilies))
	for i, f := range standardFamilies {
		names[i] = f.Name
	}
	return names
}
