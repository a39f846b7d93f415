// Package shard distributes explicit cell lists over a set of rumord
// peer daemons: a coordinator partitions each batch over a consistent
// node ring (Kademlia's XOR-distance placement idiom) with bounded
// loads — every cell goes to the XOR-nearest peer that still has room
// under an even split of the batch — fans every partition out through
// the typed SDK as one idempotent job per peer, merges the peer result
// streams back into canonical cell order, and — because submits are
// idempotent and results content-addressed — reassigns a dead peer's
// unfinished cells to the survivors without recomputing or duplicating
// anything already delivered.
//
// The Coordinator implements service.CellRunner, each partition one
// StreamCells call on its peer's SDK client, so anything that runs cells
// locally or on one daemon runs them sharded by swapping in a Coordinator:
// `rumord -peers=` turns a daemon into a coordinator, and
// `experiments -peers=` runs the whole experiment suite across a cluster.
package shard

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// DefaultReplicas is the number of virtual points each peer occupies
// on the ring. More points even out the peers' shares of the key space
// (Owner); the coordinator's partitions are even at any count, because
// partition caps every peer's load. The placement stays consistent
// (removing a peer only moves that peer's keys) at any count.
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
// keeps its owner. Owner is each key's first choice; the coordinator
// places a batch with partition, which sends a key elsewhere only when
// its owner already holds its share of the batch.
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

// hash64 is the ring's hash, for points and keys alike: FNV-1a,
// finalized with murmur3's fmix64. Bare FNV-1a of "peer#0", "peer#1", …
// differs only in its low bits, while XOR distance is decided by the
// high bits, so a peer's points would cluster on a few values of the
// top byte; the finalizer spreads every input bit over all 64.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
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

// partition splits a batch over the ring's peers with bounded loads
// (Mirrokni, Thorup and Zadimoghaddam's consistent hashing with bounded
// loads, at ε = 0): with m keys on p peers, no peer takes more than
// ⌈m/p⌉, and once m mod p peers hold that many the rest stop at ⌊m/p⌋,
// so the loads differ by at most one. The keys are taken in (hash,
// key, index) order, and each goes to the XOR-nearest peer — by its
// nearest point, ties to the smaller peer — that still has room, so a
// key whose Owner has room lands on its Owner, and the placement
// depends only on the batch's keys and the peer set, never on their
// order. The result maps each peer that got keys to their indices in
// ascending order; nil on an empty ring.
func (r *Ring) partition(keys []string) map[string][]int {
	if len(r.points) == 0 {
		return nil
	}
	peers := r.Peers()
	// slot[j] is the index in peers of point j's peer.
	slot := make([]int, len(r.points))
	for j, pt := range r.points {
		slot[j], _ = slices.BinarySearch(peers, pt.peer)
	}
	p := len(peers)
	q, rem := len(keys)/p, len(keys)%p

	hashes := make([]uint64, len(keys))
	order := make([]int, len(keys))
	for i, k := range keys {
		hashes[i] = hash64(k)
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(hashes[a], hashes[b]), cmp.Compare(keys[a], keys[b]), cmp.Compare(a, b))
	})

	load := make([]int, p)
	atCeil := 0 // peers holding q+1 keys
	full := func(s int) bool {
		return load[s] == q+1 || (load[s] == q && atCeil == rem)
	}
	dist := make([]uint64, p)
	placed := make([]int, len(keys))
	for _, i := range order {
		for s := range dist {
			dist[s] = ^uint64(0)
		}
		for j, pt := range r.points {
			dist[slot[j]] = min(dist[slot[j]], pt.id^hashes[i])
		}
		best := -1
		for s := range dist {
			if !full(s) && (best < 0 || dist[s] < dist[best]) {
				best = s
			}
		}
		placed[i] = best
		if load[best] == q {
			atCeil++
		}
		load[best]++
	}
	parts := make(map[string][]int, p)
	for i, s := range placed {
		parts[peers[s]] = append(parts[peers[s]], i)
	}
	return parts
}
