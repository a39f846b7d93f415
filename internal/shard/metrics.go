package shard

import "rumor/internal/obs"

// Metrics holds the coordinator's instruments, registered as the
// rumor_shard_* families. A nil *Metrics disables instrumentation:
// New resolves it to the zero value, whose nil instruments are no-ops.
type Metrics struct {
	peers         *obs.Gauge        // configured peer count
	cells         *obs.CounterVec   // peer: results delivered by each peer
	assigned      *obs.CounterVec   // peer: cells assigned to each peer
	reassignments *obs.Counter      // cells moved off a failed peer
	peerFailures  *obs.CounterVec   // peer: partitions failed over
	duplicates    *obs.Counter      // double-computed results deduplicated
	streamSecs    *obs.HistogramVec // peer: partition submit→stream-end latency
}

// NewMetrics registers the shard metric families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{}
	m.peers = reg.NewGauge("rumor_shard_peers",
		"Peer daemons configured on the coordinator's hash ring.")
	m.cells = reg.NewCounterVec("rumor_shard_cells_total",
		"Cell results delivered, by the peer that served them.", "peer")
	m.assigned = reg.NewCounterVec("rumor_shard_assigned_cells_total",
		"Cells assigned by the hash ring's bounded-load partition, by peer (reassigned cells count again on their new peer).",
		"peer")
	m.reassignments = reg.NewCounter("rumor_shard_reassignments_total",
		"Unfinished cells reassigned from a failed peer to survivors.")
	m.peerFailures = reg.NewCounterVec("rumor_shard_peer_failures_total",
		"Peer partitions failed over (transport death mid-batch), by peer.", "peer")
	m.duplicates = reg.NewCounter("rumor_shard_duplicate_results_total",
		"Double-computed cell results discarded by the merge (content-addressing makes them byte-identical).")
	m.streamSecs = reg.NewHistogramVec("rumor_shard_peer_stream_seconds",
		"Per-partition latency from submit to the end of the peer's result stream, by peer.",
		nil, "peer")
	return m
}
