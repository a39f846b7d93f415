package core

import "rumor/internal/graph"

// quasirandomRound collects one round of the quasirandom synchronous
// protocol (Doerr, Friedrich, Künnemann, Sauerwald — the paper's
// reference [11]; extension beyond the paper's own model) into
// s.pending: every node owns a cyclic list of its neighbors (the sorted
// adjacency order) and an independent uniformly random starting offset;
// in round r it contacts the neighbor at position (offset + r - 1) mod
// deg. The only randomness is the per-node offset — all subsequent
// contacts are deterministic.
//
// Informed callers push; uninformed callers pull (subject to the
// configured protocol), with the same pre-round snapshot semantics as
// the fully random round. The quasirandom literature's headline result
// is that this derandomization preserves (and often slightly improves)
// the spreading time of the fully random protocol; experiment E15
// measures exactly that.
//
// Multi-source and lossy transmission are supported; crash injection is
// not (the model's contact sequence is a function of the round, which a
// crash schedule would not disturb anyway — configure Crashes and
// NewTrial fails).
func (s *SyncStepper) quasirandomRound() {
	st := s.st
	if s.doPush {
		s.updates += int64(len(st.order))
		for _, v := range st.order {
			w := s.quasirandomContact(v)
			if !st.informed.get(w) && (s.prob >= 1 || s.rng.Bernoulli(s.prob)) {
				s.pending = append(s.pending, syncPending{w, v})
			}
		}
	}
	if s.doPull {
		st.compactBoundary()
		s.updates += int64(len(st.boundary))
		for _, v := range st.boundary {
			w := s.quasirandomContact(v)
			if st.informed.get(w) && (s.prob >= 1 || s.rng.Bernoulli(s.prob)) {
				s.pending = append(s.pending, syncPending{v, w})
			}
		}
	}
}

// quasirandomContact returns v's contact in the current round. Offsets
// are sampled lazily on a node's first relevant contact; the contact
// position in round r is (offset + r - 1) mod deg, so nodes whose early
// rounds were skipped (no informed neighbor, cannot transmit) still
// contact the right neighbor later.
func (s *SyncStepper) quasirandomContact(v graph.NodeID) graph.NodeID {
	deg := s.g.Degree(v)
	if s.offsets[v] == 0 {
		s.offsets[v] = s.rng.Int32n(deg) + 1
	}
	return s.g.Neighbor(v, (s.offsets[v]-1+int32(s.round-1))%deg)
}
