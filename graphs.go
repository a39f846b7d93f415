package rumor

import (
	"io"

	"rumor/internal/graph"
)

// Deterministic graph families.

// Complete returns the complete graph K_n.
func Complete(n int) (*Graph, error) { return graph.Complete(n) }

// Star returns the n-vertex star (node 0 is the center).
func Star(n int) (*Graph, error) { return graph.Star(n) }

// Path returns the path graph on n vertices.
func Path(n int) (*Graph, error) { return graph.Path(n) }

// Cycle returns the cycle graph on n vertices.
func Cycle(n int) (*Graph, error) { return graph.Cycle(n) }

// Hypercube returns the dim-dimensional hypercube (2^dim vertices).
func Hypercube(dim int) (*Graph, error) { return graph.Hypercube(dim) }

// Grid returns the rows x cols grid; torus wraps both dimensions.
func Grid(rows, cols int, torus bool) (*Graph, error) { return graph.Grid(rows, cols, torus) }

// Barbell returns two k-cliques joined by a path of pathLen vertices.
func Barbell(k, pathLen int) (*Graph, error) { return graph.Barbell(k, pathLen) }

// DiamondChain returns k diamonds in series with m parallel length-2
// paths each — the adversarial family with the extremal sync/async gap.
func DiamondChain(k, m int) (*Graph, error) { return graph.DiamondChain(k, m) }

// Random graph families (deterministic given the RNG state).

// GNP returns an Erdős–Rényi G(n, p) graph.
func GNP(n int, p float64, rng *RNG) (*Graph, error) { return graph.GNP(n, p, rng) }

// RandomRegular returns a random d-regular simple graph.
func RandomRegular(n, d int, rng *RNG) (*Graph, error) { return graph.RandomRegular(n, d, rng) }

// ChungLuPowerLaw returns a Chung–Lu graph with power-law expected
// degrees (the paper's social-network model).
func ChungLuPowerLaw(n int, beta, minDeg float64, rng *RNG) (*Graph, error) {
	return graph.ChungLuPowerLaw(n, beta, minDeg, rng)
}

// PreferentialAttachment returns a Barabási–Albert graph with m edges
// per arriving node.
func PreferentialAttachment(n, m int, rng *RNG) (*Graph, error) {
	return graph.PreferentialAttachment(n, m, rng)
}

// Graph analysis helpers.

// IsConnected reports whether g is connected.
func IsConnected(g *Graph) bool { return graph.IsConnected(g) }

// Diameter returns the exact diameter (O(n·m); -1 when disconnected).
func Diameter(g *Graph) int32 { return graph.Diameter(g) }

// LargestComponent extracts the largest connected component.
func LargestComponent(g *Graph) (*Graph, []NodeID, error) { return graph.LargestComponent(g) }

// WriteEdgeList writes g as a text edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// ReadEdgeList parses the WriteEdgeList format.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }
