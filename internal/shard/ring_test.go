package shard

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("cell-key-%04d", i)
	}
	return out
}

func TestRingOwnerDeterministic(t *testing.T) {
	build := func() *Ring {
		r := NewRing(0)
		// Insertion order must not matter.
		for _, p := range []string{"c", "a", "b"} {
			r.Add(p)
		}
		return r
	}
	a, b := build(), build()
	for _, k := range keys(500) {
		oa, ok := a.Owner(k)
		ob, _ := b.Owner(k)
		if !ok || oa != ob {
			t.Fatalf("owner of %q differs across identical rings: %q vs %q", k, oa, ob)
		}
	}
	if _, ok := NewRing(0).Owner("k"); ok {
		t.Error("empty ring claims an owner")
	}
}

// TestRingConsistentPlacement is the property failover rests on:
// removing one peer only moves the keys that peer owned — every other
// key keeps its owner, so the survivors' idempotent jobs re-bind
// unchanged.
func TestRingConsistentPlacement(t *testing.T) {
	r := NewRing(0)
	peers := []string{"p0", "p1", "p2", "p3", "p4"}
	for _, p := range peers {
		r.Add(p)
	}
	ks := keys(2000)
	before := make(map[string]string, len(ks))
	for _, k := range ks {
		before[k], _ = r.Owner(k)
	}
	r.Remove("p2")
	for _, k := range ks {
		after, ok := r.Owner(k)
		if !ok {
			t.Fatalf("no owner for %q after removal", k)
		}
		if after == "p2" {
			t.Fatalf("removed peer still owns %q", k)
		}
		if before[k] != "p2" && after != before[k] {
			t.Fatalf("key %q moved from %q to %q though its owner survived", k, before[k], after)
		}
	}
}

// Peer names as the coordinator's ring sees them: the benchmark's two
// fixed peers and three local daemons.
var (
	benchPeers = []string{"http://peer-0.bench", "http://peer-1.bench"}
	localPeers = []string{"http://127.0.0.1:9101", "http://127.0.0.1:9102", "http://127.0.0.1:9103"}
)

// TestRingPointsSpread: a peer's virtual points must land all over the
// ring, not on a few values of the top byte (XOR distance is decided
// by the high bits, so clustered points hand one peer most of the key
// space). Bare FNV-1a of "peer#i" put each peer's 32 points on 2–3 top
// bytes.
func TestRingPointsSpread(t *testing.T) {
	for _, peer := range append(append([]string(nil), benchPeers...), localPeers...) {
		r := NewRing(0)
		r.Add(peer)
		tops := make(map[uint64]bool)
		for _, pt := range r.points {
			tops[pt.id>>56] = true
		}
		if len(tops) < DefaultReplicas/2 {
			t.Errorf("peer %s: %d points span %d top bytes, want at least %d",
				peer, len(r.points), len(tops), DefaultReplicas/2)
		}
	}
}

// TestRingBalance: with virtual points, each peer's Owner share of a
// uniform key population stays within 30% of the fair share.
func TestRingBalance(t *testing.T) {
	sets := [][]string{benchPeers, localPeers}
	for n := 2; n <= 5; n++ {
		set := make([]string, n)
		for i := range set {
			set[i] = fmt.Sprintf("peer-%d", i)
		}
		sets = append(sets, set)
	}
	ks := keys(8000)
	for _, set := range sets {
		r := NewRing(0)
		for _, p := range set {
			r.Add(p)
		}
		counts := make(map[string]int)
		for _, k := range ks {
			p, _ := r.Owner(k)
			counts[p]++
		}
		fair := float64(len(ks)) / float64(len(set))
		for _, p := range set {
			if share := float64(counts[p]) / fair; share < 0.7 || share > 1.3 {
				t.Errorf("%v: peer %s owns %d keys, %.2f× the fair share", set, p, counts[p], share)
			}
		}
	}
}

func TestRingAddRemoveIdempotent(t *testing.T) {
	r := NewRing(4)
	r.Add("a")
	r.Add("a")
	if got := len(r.points); got != 4 {
		t.Errorf("double Add left %d points, want 4", got)
	}
	r.Remove("missing")
	r.Remove("a")
	r.Remove("a")
	if r.Len() != 0 || len(r.points) != 0 {
		t.Errorf("ring not empty after removal: %d peers, %d points", r.Len(), len(r.points))
	}
}

func TestRingCloneIsIndependent(t *testing.T) {
	r := NewRing(0)
	r.Add("a")
	r.Add("b")
	c := r.Clone()
	c.Remove("a")
	if !r.Has("a") || r.Len() != 2 {
		t.Error("mutating the clone changed the original ring")
	}
	if c.Has("a") || c.Len() != 1 {
		t.Error("clone did not remove the peer")
	}
}

// TestPartitionProperties holds partition to its contract for 1–5 peers
// and 0–130 keys: every index placed exactly once and in ascending
// order per peer, loads at most ⌈m/p⌉ and within one of each other,
// the same peer for every key under a shuffled input, and a key off
// its Owner only when that owner was full when the key's turn came.
func TestPartitionProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for p := 1; p <= 5; p++ {
		r := NewRing(0)
		for i := 0; i < p; i++ {
			r.Add(fmt.Sprintf("http://peer-%d:91%02d", i, i))
		}
		for m := 0; m <= 130; m++ {
			ks := make([]string, m)
			for i := range ks {
				ks[i] = fmt.Sprintf("p%d-m%d-key-%d", p, m, i)
			}
			parts := r.partition(ks)
			peerOf := make([]string, m)
			for i := range peerOf {
				peerOf[i] = "-"
			}
			minLoad, maxLoad := m, 0
			for _, peer := range r.Peers() {
				idx := parts[peer]
				if !slices.IsSorted(idx) {
					t.Fatalf("p=%d m=%d: %s's indices %v not ascending", p, m, peer, idx)
				}
				for _, i := range idx {
					if peerOf[i] != "-" {
						t.Fatalf("p=%d m=%d: key %d placed on %s and %s", p, m, i, peerOf[i], peer)
					}
					peerOf[i] = peer
				}
				minLoad, maxLoad = min(minLoad, len(idx)), max(maxLoad, len(idx))
			}
			for i, peer := range peerOf {
				if peer == "-" {
					t.Fatalf("p=%d m=%d: key %d placed nowhere", p, m, i)
				}
			}
			if ceil := (m + p - 1) / p; maxLoad > ceil || maxLoad-minLoad > 1 {
				t.Fatalf("p=%d m=%d: loads span [%d, %d], want at most %d and within one", p, m, minLoad, maxLoad, ceil)
			}

			perm := rng.Perm(m)
			shuffled := make([]string, m)
			for j, i := range perm {
				shuffled[j] = ks[i]
			}
			for peer, idx := range r.partition(shuffled) {
				for _, j := range idx {
					if got := peerOf[perm[j]]; got != peer {
						t.Fatalf("p=%d m=%d: key %q on %s, but on %s once shuffled", p, m, shuffled[j], got, peer)
					}
				}
			}

			// Replay the placement in (hash, key, index) order: a key
			// off its Owner needs an Owner that was full at the time.
			order := make([]int, m)
			for i := range order {
				order[i] = i
			}
			slices.SortFunc(order, func(a, b int) int {
				return cmp.Or(cmp.Compare(hash64(ks[a]), hash64(ks[b])), cmp.Compare(ks[a], ks[b]), cmp.Compare(a, b))
			})
			q, rem := m/p, m%p
			load := make(map[string]int)
			atCeil := 0
			for _, i := range order {
				owner, _ := r.Owner(ks[i])
				full := load[owner] == q+1 || (load[owner] == q && atCeil == rem)
				if peerOf[i] != owner && !full {
					t.Fatalf("p=%d m=%d: key %d on %s, though its owner %s had room (%d keys)",
						p, m, i, peerOf[i], owner, load[owner])
				}
				if load[peerOf[i]] == q {
					atCeil++
				}
				load[peerOf[i]]++
			}
		}
	}
	if NewRing(0).partition(keys(3)) != nil {
		t.Error("an empty ring partitioned keys")
	}
}

// BenchmarkPartition times one batch's placement: the keys of a
// shard_fanout-sized batch and of a large one, over 2 and 8 peers.
func BenchmarkPartition(b *testing.B) {
	for _, m := range []int{64, 1024} {
		for _, p := range []int{2, 8} {
			b.Run(fmt.Sprintf("keys=%d/peers=%d", m, p), func(b *testing.B) {
				r := NewRing(0)
				for i := 0; i < p; i++ {
					r.Add(fmt.Sprintf("http://peer-%d.bench", i))
				}
				ks := keys(m)
				b.ReportAllocs()
				for b.Loop() {
					r.partition(ks)
				}
			})
		}
	}
}
