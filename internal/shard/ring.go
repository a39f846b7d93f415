// Package shard distributes explicit cell lists over a set of rumord
// peer daemons: a coordinator partitions the cells by hashing each
// cell's canonical key onto a consistent node ring (Kademlia's
// XOR-distance placement idiom), fans every partition out through the
// typed SDK as one idempotent job per peer, merges the peer result
// streams back into canonical cell order, and — because submits are
// idempotent and results content-addressed — reassigns a dead peer's
// unfinished cells to the survivors without recomputing or duplicating
// anything already delivered.
//
// The Coordinator implements service.CellRunner, each partition one
// StreamCells call on its peer's SDK client, so anything that runs cells
// locally or on one daemon runs them sharded by swapping in a Coordinator:
// `rumord -peers=` turns a daemon into a coordinator, and
// `experiments -peers=` runs the whole E1–E15 suite across a cluster.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the number of virtual points each peer occupies
// on the ring. More points smooth the partition sizes; the placement
// stays consistent (removing a peer only moves that peer's cells) at
// any count.
const DefaultReplicas = 32

// point is one virtual position of a peer on the ring.
type point struct {
	id   uint64
	peer string
}

// Ring places keys on peers by XOR distance: a key belongs to the
// peer owning the virtual point whose hash is XOR-closest to the
// key's hash (distances compared as unsigned integers, the Kademlia
// metric). The placement is consistent: adding or removing a peer
// only moves the keys that peer gains or loses — every other key
// keeps its owner, which is exactly what failover needs (a dead
// peer's cells scatter over the survivors; the survivors' own cells
// stay put, so their idempotent jobs are unchanged).
//
// Ring is not safe for concurrent mutation; the Coordinator clones it
// per batch.
type Ring struct {
	replicas int
	points   []point
	peers    map[string]bool
}

// NewRing returns an empty ring; replicas <= 0 selects
// DefaultReplicas.
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, peers: make(map[string]bool)}
}

// hash64 is the ring's hash (FNV-1a): cheap, stable across processes,
// and uniform enough at cluster scale.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// Add places peer on the ring (replicas virtual points). Re-adding an
// existing peer is a no-op.
func (r *Ring) Add(peer string) {
	if r.peers[peer] {
		return
	}
	r.peers[peer] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, point{
			id:   hash64(fmt.Sprintf("%s#%d", peer, i)),
			peer: peer,
		})
	}
}

// Remove takes peer (and all its virtual points) off the ring.
func (r *Ring) Remove(peer string) {
	if !r.peers[peer] {
		return
	}
	delete(r.peers, peer)
	live := r.points[:0]
	for _, p := range r.points {
		if p.peer != peer {
			live = append(live, p)
		}
	}
	r.points = live
}

// Len returns the number of peers on the ring.
func (r *Ring) Len() int { return len(r.peers) }

// Peers returns the peers on the ring, sorted.
func (r *Ring) Peers() []string {
	out := make([]string, 0, len(r.peers))
	for p := range r.peers {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Has reports whether peer is on the ring.
func (r *Ring) Has(peer string) bool { return r.peers[peer] }

// Clone returns an independent copy of the ring (the Coordinator's
// per-batch working set, so one batch's failovers do not condemn a
// peer forever).
func (r *Ring) Clone() *Ring {
	c := &Ring{
		replicas: r.replicas,
		points:   append([]point(nil), r.points...),
		peers:    make(map[string]bool, len(r.peers)),
	}
	for p := range r.peers {
		c.peers[p] = true
	}
	return c
}

// Owner returns the peer owning key: the XOR-closest virtual point's
// peer. ok is false on an empty ring. Ties (a hash collision between
// two peers' points) break to the lexicographically smaller peer so
// placement is deterministic everywhere.
func (r *Ring) Owner(key string) (peer string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	kh := hash64(key)
	best := r.points[0]
	bestDist := best.id ^ kh
	for _, p := range r.points[1:] {
		d := p.id ^ kh
		if d < bestDist || (d == bestDist && p.peer < best.peer) {
			best, bestDist = p, d
		}
	}
	return best.peer, true
}
