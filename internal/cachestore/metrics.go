package cachestore

import "rumor/internal/obs"

// Metrics instruments a Store on an obs.Registry. The store's own
// Stats counters are mirrored at scrape time (one consistent snapshot,
// no double counting); only measurements Stats cannot express — flush
// latency, torn-tail recoveries, completed compaction passes — are
// recorded live at their call sites.
//
// Create the Metrics before Open (registration panics on duplicate
// names, so one registry gets one cachestore Metrics) and pass it via
// Options.Metrics; Open attaches the scrape-time mirror itself.
type Metrics struct {
	reg *obs.Registry

	// Live instruments.
	flushSeconds   *obs.Histogram
	tornTails      *obs.Counter
	compactionRuns *obs.Counter

	// Scrape-time mirrors of Stats.
	records   *obs.Gauge
	segments  *obs.Gauge
	bytes     *obs.Gauge
	deadBytes *obs.Gauge
	pending   *obs.Gauge
	hits      *obs.Counter
	misses    *obs.Counter
	appends   *obs.Counter
	flushes   *obs.Counter
	dropped   *obs.Counter
	reclaimed *obs.Counter
	corrupt   *obs.Counter
}

// NewMetrics registers the cachestore metric families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{reg: reg}
	m.flushSeconds = reg.NewHistogram("rumor_cachestore_flush_seconds",
		"Latency of one write-behind flush batch (encode, append, fsync).",
		obs.ExpBuckets(0.0005, 2, 14))
	m.tornTails = reg.NewCounter("rumor_cachestore_torn_tail_recoveries_total",
		"Torn active-segment tails truncated away during recovery.")
	m.compactionRuns = reg.NewCounter("rumor_cachestore_compaction_runs_total",
		"Completed compaction passes.")
	m.records = reg.NewGauge("rumor_cachestore_records",
		"Live (indexed) records in the store.")
	m.segments = reg.NewGauge("rumor_cachestore_segments",
		"Segment files on disk.")
	m.bytes = reg.NewGauge("rumor_cachestore_bytes",
		"Total on-disk size across segments.")
	m.deadBytes = reg.NewGauge("rumor_cachestore_dead_bytes",
		"Superseded, stale, or skipped-corrupt bytes awaiting compaction.")
	m.pending = reg.NewGauge("rumor_cachestore_pending_appends",
		"Write-behind queue length.")
	m.hits = reg.NewCounter("rumor_cachestore_hits_total",
		"Get requests served from the store.")
	m.misses = reg.NewCounter("rumor_cachestore_misses_total",
		"Get requests the store could not serve.")
	m.appends = reg.NewCounter("rumor_cachestore_appends_total",
		"Records durably appended.")
	m.flushes = reg.NewCounter("rumor_cachestore_flushes_total",
		"Fsync batches written by the flusher.")
	m.dropped = reg.NewCounter("rumor_cachestore_dropped_total",
		"Puts lost to a full queue, invalid values, or write errors.")
	m.reclaimed = reg.NewCounter("rumor_cachestore_reclaimed_bytes_total",
		"Bytes removed by recovery truncation and compaction.")
	m.corrupt = reg.NewCounter("rumor_cachestore_corrupt_records_total",
		"Records rejected by checksum or parse failures.")
	return m
}

// track attaches the scrape-time Stats mirror for s. Called once from
// Open.
func (m *Metrics) track(s *Store) {
	m.reg.OnCollect(func() {
		st := s.Stats()
		m.records.Set(float64(st.Records))
		m.segments.Set(float64(st.Segments))
		m.bytes.Set(float64(st.Bytes))
		m.deadBytes.Set(float64(st.DeadBytes))
		m.pending.Set(float64(st.Pending))
		m.hits.Set(float64(st.Hits))
		m.misses.Set(float64(st.Misses))
		m.appends.Set(float64(st.Appends))
		m.flushes.Set(float64(st.Flushes))
		m.dropped.Set(float64(st.Dropped))
		m.reclaimed.Set(float64(st.ReclaimedBytes))
		m.corrupt.Set(float64(st.CorruptRecords))
	})
}
