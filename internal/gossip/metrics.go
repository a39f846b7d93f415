package gossip

import "rumor/internal/obs"

// Metrics holds the live-cluster instruments, registered as the
// rumor_gossip_* families. A nil *Metrics disables instrumentation:
// NewNode, NewSelfHost, Attach and Call resolve it to the zero value,
// whose nil instruments are no-ops. One Metrics is
// shared by every node hosted in a process and by the coordinator, so
// a self-hosted cluster's whole traffic shows up on one registry.
type Metrics struct {
	nodes      *obs.Gauge      // nodes currently hosted in this process
	sent       *obs.CounterVec // method: gossip/control messages sent
	received   *obs.CounterVec // method: messages dispatched by nodes
	dropped    *obs.Counter    // loss-injected transmission drops
	contacts   *obs.Counter    // gossip exchanges initiated (push or pull)
	dialErrors *obs.Counter    // failed gossip-plane deliveries
	dials      *obs.Counter    // connections opened by transports
	reuses     *obs.Counter    // calls served by an idle link
	idleConns  *obs.Gauge      // idle links held by transports
	rounds     *obs.Counter    // synchronous rounds driven
	runs       *obs.Counter    // live measurement runs completed
	informed   *obs.Gauge      // informed nodes at the last report
	runSeconds *obs.Histogram  // live run wall-clock
	frameBytes *obs.CounterVec // direction (sent|received): wire bytes
}

// NewMetrics registers the gossip metric families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{}
	m.nodes = reg.NewGauge("rumor_gossip_nodes",
		"Live gossip nodes currently hosted in this process.")
	m.sent = reg.NewCounterVec("rumor_gossip_messages_sent_total",
		"Wire messages sent, by method tag.", "method")
	m.received = reg.NewCounterVec("rumor_gossip_messages_received_total",
		"Wire messages dispatched by node handlers, by method tag.", "method")
	m.dropped = reg.NewCounter("rumor_gossip_messages_dropped_total",
		"Gossip transmissions dropped by the configured loss probability (sender-side injection).")
	m.contacts = reg.NewCounter("rumor_gossip_contacts_total",
		"Gossip exchanges initiated by nodes (one per sync-round action or async clock tick that acts).")
	m.dialErrors = reg.NewCounter("rumor_gossip_dial_errors_total",
		"Gossip-plane calls that failed at the transport after the one permitted redial of a stale link, excluding injected loss.")
	m.dials = reg.NewCounter("rumor_gossip_dials_total",
		"Connections opened by node and coordinator transports (one-shot Call dials are not counted).")
	m.reuses = reg.NewCounter("rumor_gossip_conn_reuses_total",
		"Calls sent on an idle link instead of a new connection.")
	m.idleConns = reg.NewGauge("rumor_gossip_idle_conns",
		"Idle links currently held by the transports in this process.")
	m.rounds = reg.NewCounter("rumor_gossip_rounds_total",
		"Synchronous rounds driven by the coordinator.")
	m.runs = reg.NewCounter("rumor_gossip_live_runs_total",
		"Live cluster measurement runs completed.")
	m.informed = reg.NewGauge("rumor_gossip_informed_nodes",
		"Informed nodes at the coordinator's most recent report sweep.")
	m.runSeconds = reg.NewHistogram("rumor_gossip_run_seconds",
		"Wall-clock duration of one live measurement run (startup to full report).",
		obs.ExpBuckets(0.01, 2, 12))
	m.frameBytes = reg.NewCounterVec("rumor_gossip_frame_bytes_total",
		"Wire bytes moved by the envelope codec, by direction.", "direction")
	return m
}
