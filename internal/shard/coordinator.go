package shard

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"rumor/client"
	"rumor/internal/api"
	"rumor/internal/obs"
	"rumor/internal/peers"
	"rumor/internal/service"
)

// Config configures a Coordinator.
type Config struct {
	// Peers are the rumord peer base URLs. A bare "host:port" is
	// normalized to "http://host:port". At least one peer is required.
	Peers []string
	// ClientOptions are applied to every peer's SDK client (custom
	// transports for fault injection, retry/backoff tuning). The
	// client's retry budget doubles as the peer-death detector: a peer
	// whose stream cannot be resumed within the budget is failed over.
	ClientOptions []client.Option
	// Metrics instruments the coordinator (rumor_shard_* families);
	// nil disables.
	Metrics *Metrics
	// Log receives reassignment and failover events; nil disables.
	Log *slog.Logger
}

// Coordinator shards explicit cell lists over rumord peers. It is safe
// for concurrent use: each batch works on its own clone of the ring,
// so one batch's failovers never condemn a peer for later batches (a
// restarted peer is simply used again).
type Coordinator struct {
	ring    *Ring
	clients map[string]*client.Client
	metrics *Metrics
	log     *slog.Logger
}

// New validates the peer list and returns a coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("shard: no peers")
	}
	urls, err := peers.ParseURLs(cfg.Peers)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	co := &Coordinator{
		ring:    NewRing(0),
		clients: make(map[string]*client.Client, len(urls)),
		metrics: obs.OrZero(cfg.Metrics),
		log:     obs.OrDiscard(cfg.Log),
	}
	for _, u := range urls {
		c, err := client.New(u, cfg.ClientOptions...)
		if err != nil {
			return nil, fmt.Errorf("shard: peer %q: %w", u, err)
		}
		co.ring.Add(u)
		co.clients[u] = c
	}
	co.metrics.peers.Set(float64(co.ring.Len()))
	return co, nil
}

// Peers returns the normalized peer URLs, sorted.
func (co *Coordinator) Peers() []string { return co.ring.Peers() }

// RunCells is StreamCells with no callback.
func (co *Coordinator) RunCells(ctx context.Context, cells []service.CellSpec) ([]*service.CellResult, error) {
	return co.StreamCells(ctx, cells, nil)
}

// isPeerFailure classifies a partition error: transport-shaped
// failures (connection refused, a resume budget drained against a
// dead peer) fail the peer over; everything that would reproduce on
// any peer — a typed API error (bad spec, failed job), a cancelled
// context — aborts the batch.
func isPeerFailure(err error) bool {
	var apiErr *api.Error
	switch {
	case errors.As(err, &apiErr),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	}
	return true
}

// StreamCells implements service.CellRunner: the cells run sharded over
// the peers and come back indexed like the input, byte-identical to
// what a single daemon (or an in-process Executor) computes for the
// same specs. It splits the cells evenly over the ring by canonical
// cell key (bounded-load placement: each cell on the XOR-nearest peer
// with room), runs one idempotent job per peer concurrently, and
// invokes fn once per cell as results land — exactly once, even across
// failovers.
// When a peer dies mid-batch it is removed from the (batch-local) ring
// and its unfinished cells are re-partitioned over the survivors; cells
// the dead peer already delivered are kept, and any cell a dying peer
// manages to deliver late is deduplicated by the merge (results are
// content-addressed, so the copies are identical). An fn error stops
// every partition and is returned as is; otherwise the batch fails only
// when every peer has died or a non-transport error occurs.
func (co *Coordinator) StreamCells(ctx context.Context, cells []service.CellSpec, fn func(*service.CellResult) error) ([]*service.CellResult, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("shard: %w: no cells", service.ErrBadSpec)
	}
	// batch ends every partition's stream once the batch must stop.
	batch, stop := context.WithCancel(ctx)
	defer stop()
	results := make([]*service.CellResult, len(cells))
	var mu sync.Mutex // guards results, fatal and fn
	var fatal error   // the first error that stops the batch: fn's, or a key mismatch
	deliver := func(peer string, global int, res *service.CellResult) error {
		out := *res
		out.Index = global
		mu.Lock()
		defer mu.Unlock()
		if fatal != nil {
			return fatal
		}
		switch prev := results[global]; {
		case prev == nil:
			results[global] = &out
			co.metrics.cells.With(peer).Inc()
			if fn != nil {
				fatal = fn(&out)
			}
		case prev.Key == out.Key:
			// Double-computed (a reassignment raced a slow delivery):
			// content-addressing guarantees the copies agree, so keep
			// the first and count the discard.
			co.metrics.duplicates.Inc()
		default:
			fatal = fmt.Errorf("shard: cell %d key mismatch across peers: %s vs %s", global, prev.Key, out.Key)
		}
		if fatal != nil {
			stop()
		}
		return fatal
	}

	ring := co.ring.Clone()
	pending := make([]int, len(cells))
	for i := range cells {
		pending[i] = i
	}
	for round := 0; len(pending) > 0; round++ {
		if ring.Len() == 0 {
			return nil, fmt.Errorf("shard: all %d peers failed with %d of %d cells unfinished",
				len(co.clients), len(pending), len(cells))
		}
		// Partition the unfinished cells evenly over the live ring. Keys,
		// not indices, drive placement, so any coordinator with the
		// same peer set routes the same batch identically.
		keys := make([]string, len(pending))
		for j, i := range pending {
			keys[j] = cells[i].Key()
		}
		parts := ring.partition(keys)
		for _, idx := range parts {
			for j, k := range idx {
				idx[j] = pending[k]
			}
		}
		peers := make([]string, 0, len(parts))
		for p := range parts {
			peers = append(peers, p)
		}
		sort.Strings(peers)

		errs := make([]error, len(peers))
		var wg sync.WaitGroup
		for pi, peer := range peers {
			co.metrics.assigned.With(peer).Add(float64(len(parts[peer])))
			if round > 0 {
				co.metrics.reassignments.Add(float64(len(parts[peer])))
			}
			wg.Add(1)
			go func(pi int, peer string) {
				defer wg.Done()
				errs[pi] = co.runPartition(batch, peer, cells, parts[peer], deliver)
			}(pi, peer)
		}
		wg.Wait()

		if fatal != nil {
			return nil, fatal
		}
		for pi, err := range errs {
			if err == nil {
				continue
			}
			if !isPeerFailure(err) {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				return nil, fmt.Errorf("shard: peer %s: %w", peers[pi], err)
			}
			// The peer died: take it off this batch's ring; its
			// undelivered cells go back to pending below.
			ring.Remove(peers[pi])
			co.metrics.peerFailures.With(peers[pi]).Inc()
			co.log.WarnContext(ctx, "shard peer failed, reassigning its unfinished cells",
				"peer", peers[pi], "error", err.Error(), "survivors", ring.Len())
		}

		mu.Lock()
		live := pending[:0]
		for _, i := range pending {
			if results[i] == nil {
				live = append(live, i)
			}
		}
		pending = live
		mu.Unlock()
	}
	return results, nil
}

// runPartition runs one peer's share as a single idempotent job through
// the peer's SDK client — keyed by the partition's spec hash, so a retry
// or a second coordinator binds to the same server-side job, and
// streamed back with the SDK's cursor resume — re-indexing each
// partition-local row to its global cell index.
func (co *Coordinator) runPartition(ctx context.Context, peer string, cells []service.CellSpec, idx []int, deliver func(string, int, *service.CellResult) error) error {
	sub := make([]service.CellSpec, len(idx))
	for j, i := range idx {
		sub[j] = cells[i]
	}
	start := time.Now()
	defer func() { co.metrics.streamSecs.With(peer).Observe(time.Since(start).Seconds()) }()
	_, err := co.clients[peer].StreamCells(ctx, sub, func(res *service.CellResult) error {
		return deliver(peer, idx[res.Index], res)
	})
	return err
}

// Compile-time check: the coordinator is a drop-in cell runner.
var _ service.CellRunner = (*Coordinator)(nil)
