package core

import (
	"fmt"
	"math"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// PPVariant selects one of the paper's auxiliary synchronous processes.
type PPVariant int

// Auxiliary processes from the upper-bound analysis (Section 4).
const (
	// PPX is the process of Definition 5: an uninformed node with k
	// informed neighbors pulls with probability 1 - e^{-2k/deg(v)} if
	// k < deg(v)/2, and with probability 1 otherwise.
	PPX PPVariant = iota + 1
	// PPY is the process of Definition 7: the pull probability is
	// 1 - e^{-2k/deg(v)} always (no k >= deg(v)/2 override).
	PPY
)

// String returns the paper's name for the process.
func (v PPVariant) String() string {
	switch v {
	case PPX:
		return "ppx"
	case PPY:
		return "ppy"
	default:
		return fmt.Sprintf("PPVariant(%d)", int(v))
	}
}

// RunPPVariant executes ppx or ppy from src. These processes are not
// realistic rumor spreading algorithms — a node must know which of its
// neighbors are informed — but they are the bridge between pp and pp-a in
// the paper's upper-bound proof (Lemmas 6 and 9), and simulating them lets
// us check those lemmas empirically:
//
//	T(ppx) ≼ T(pp)                        (Lemma 6)
//	Tδ(ppy) ≤ 2·Tδ/2(ppx) + O(log(n/δ))   (Lemma 9)
//	Tδ(pp-a) ≤ 4·Tδ/2(ppy) + O(log(n/δ))  (Lemma 10)
//
// Push behaviour and round semantics are identical to RunSync. Both
// processes are single-source and crash-free: cfg must leave
// ExtraSources, Crashes and Churn empty (see CheckScenario).
func RunPPVariant(g *graph.Graph, src graph.NodeID, variant PPVariant, cfg SyncConfig, rng *xrand.RNG) (*SyncResult, error) {
	if variant == 0 {
		return nil, fmt.Errorf("%w: variant %d", ErrBadProtocol, int(variant))
	}
	out, err := runOnce(graph.NewStatic(g), src, cfg, variant, false, rng)
	return out.Sync, err
}

// variantRound collects one ppx/ppy round's transmissions into
// s.pending: the push half of pp, then a pull half with the modified
// probabilities of Definitions 5/7.
func (s *SyncStepper) variantRound() {
	g, st := s.g, s.st
	st.mustCount("variantRound")
	s.updates += int64(len(st.order))
	for _, v := range st.order {
		w := g.RandomNeighbor(v, s.rng)
		if !st.informed.get(w) && (s.prob >= 1 || s.rng.Bernoulli(s.prob)) {
			s.pending = append(s.pending, syncPending{w, v})
		}
	}
	st.compactBoundary()
	s.updates += int64(len(st.boundary))
	for _, v := range st.boundary {
		k := st.infNbrs[v]
		deg := g.Degree(v)
		var p float64
		if s.variant == PPX && 2*k >= deg {
			p = 1
		} else {
			p = -math.Expm1(-2 * float64(k) / float64(deg))
		}
		if !s.rng.Bernoulli(p) {
			continue
		}
		w := st.randomInformedNeighbor(v, s.rng)
		if s.prob >= 1 || s.rng.Bernoulli(s.prob) {
			s.pending = append(s.pending, syncPending{v, w})
		}
	}
}
