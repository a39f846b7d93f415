package service

import (
	"log/slog"
	"time"

	"rumor/internal/obs"
)

// Observability bundles the service spine's instruments: one metrics
// registry (scraped on GET /metrics) and one structured logger. A nil
// *Observability means "off": the scheduler, executor, and HTTP server
// resolve it once (orOff) to a value whose instruments are obs's no-op
// nils and whose logger discards, then call instruments and log
// unconditionally.
//
// Counter-style subsystems that already keep their own consistent
// snapshots (the cache tiers, the persistent store) are mirrored into
// the registry by collect hooks at scrape time; only genuinely new
// measurements (latency histograms, stream gauges, rejection counts)
// are instrumented at the call site.
type Observability struct {
	Reg *obs.Registry
	Log *slog.Logger

	// HTTP spine.
	httpRequests  *obs.CounterVec   // route, method, code
	httpDuration  *obs.HistogramVec // route
	httpInFlight  *obs.Gauge
	activeStreams *obs.GaugeVec // kind: ndjson | sse

	// Scheduler.
	queueDepth    *obs.Gauge // collect-mirrored from the pending-cell count
	workers       *obs.Gauge
	queueWait     *obs.Histogram
	cellDuration  *obs.HistogramVec // kind (computed cells only)
	cellsTotal    *obs.CounterVec   // kind, outcome: computed | cached | error
	rejections    *obs.Counter
	cancellations *obs.Counter
	jobsByState   *obs.GaugeVec // state
	engineUpdates *obs.Counter  // node updates simulated by computed cells
	graphBuild    *obs.Histogram
	cellTrials    *obs.Histogram

	// Cache tiers (collect-mirrored from CacheStats snapshots).
	cacheHits       *obs.CounterVec // cache, tier
	cacheMisses     *obs.CounterVec // cache
	cacheEntries    *obs.GaugeVec   // cache
	cachePromotions *obs.Counter
}

// NewObservability registers the service's metric families on reg and
// attaches log. Either may be nil: a nil registry yields no-op
// instruments (a log-only Observability), a nil log discards.
func NewObservability(reg *obs.Registry, log *slog.Logger) *Observability {
	o := &Observability{Reg: reg, Log: obs.OrDiscard(log)}
	o.httpRequests = reg.NewCounterVec("rumor_http_requests_total",
		"HTTP requests served, by route pattern, method, and status code.",
		"route", "method", "code")
	o.httpDuration = reg.NewHistogramVec("rumor_http_request_duration_seconds",
		"HTTP request latency by route pattern (streaming routes measure the full stream).",
		nil, "route")
	o.httpInFlight = reg.NewGauge("rumor_http_in_flight_requests",
		"HTTP requests currently being served.")
	o.activeStreams = reg.NewGaugeVec("rumor_http_active_streams",
		"Live result streams by kind (ndjson results, sse events).",
		"kind")
	o.queueDepth = reg.NewGauge("rumor_scheduler_queue_depth",
		"Cells waiting in the scheduler's pending queue.")
	o.workers = reg.NewGauge("rumor_scheduler_workers",
		"Size of the scheduler's cell worker pool.")
	// Queue waits, cells, builds and a cell's trials all run from
	// microseconds (n = 64) to tens of seconds (n = 10^7).
	o.queueWait = reg.NewHistogram("rumor_scheduler_queue_wait_seconds",
		"Time a cell spends queued before a worker picks it up.",
		obs.ExpBuckets(0.0001, 4, 10))
	o.cellDuration = reg.NewHistogramVec("rumor_scheduler_cell_duration_seconds",
		"Execution latency of computed (non-cached) cells, by cell kind.",
		obs.ExpBuckets(0.0001, 4, 10), "kind")
	o.cellsTotal = reg.NewCounterVec("rumor_scheduler_cells_total",
		"Cells finished, by cell kind and outcome (computed, cached, error).",
		"kind", "outcome")
	o.rejections = reg.NewCounter("rumor_scheduler_rejections_total",
		"Job submissions rejected for backpressure (queue full).")
	o.cancellations = reg.NewCounter("rumor_scheduler_cancellations_total",
		"Jobs moved to the cancelled state.")
	o.jobsByState = reg.NewGaugeVec("rumor_scheduler_jobs",
		"Known jobs by current state.", "state")
	o.engineUpdates = reg.NewCounter("rumor_engine_node_updates_total",
		"Engine node updates (simulated contact decisions and clock ticks) across computed cells — the throughput unit of the BENCH suites.")
	o.graphBuild = reg.NewHistogram("rumor_graph_build_seconds",
		"Time computed cells spent constructing their graph (generation, CSR build, connectivity check); graph-cache hits observe nothing.",
		obs.ExpBuckets(0.0001, 4, 10))
	o.cellTrials = reg.NewHistogram("rumor_cell_trials_seconds",
		"Time computed cells spent in their kind's trials, after the graph and before the summary.",
		obs.ExpBuckets(0.0001, 4, 10))
	o.cacheHits = reg.NewCounterVec("rumor_cache_hits_total",
		"Cache hits by cache (result, graph) and serving tier (mem, disk).",
		"cache", "tier")
	o.cacheMisses = reg.NewCounterVec("rumor_cache_misses_total",
		"Cache misses by cache (result, graph).", "cache")
	o.cacheEntries = reg.NewGaugeVec("rumor_cache_entries",
		"Entries currently held, by cache (result = in-memory LRU tier).", "cache")
	o.cachePromotions = reg.NewCounter("rumor_cache_promotions_total",
		"Disk-tier hits promoted into the in-memory LRU.")
	return o
}

// off is what a nil *Observability resolves to.
var off = NewObservability(nil, nil)

func (o *Observability) orOff() *Observability {
	if o == nil {
		return off
	}
	return o
}

// observeCell records one finished cell: outcome is "computed",
// "cached", or "error"; duration is observed for computed cells only
// (a cache hit's latency is the cache's, not the kind's).
func (o *Observability) observeCell(kind string, outcome string, d time.Duration) {
	o.cellsTotal.With(kind, outcome).Inc()
	if outcome == "computed" {
		o.cellDuration.With(kind).Observe(d.Seconds())
	}
}

// trackStream marks a live result stream of the given kind ("ndjson" or
// "sse") and returns the matching release. Handlers defer the release,
// so a client that disconnects mid-stream decrements the gauge on the
// handler's way out — the gauge counts streams actually being served,
// not streams ever started.
func (o *Observability) trackStream(kind string) func() {
	g := o.activeStreams.With(kind)
	g.Inc()
	return g.Dec
}

// observeScheduler registers the scrape-time mirror of the scheduler's
// own Metrics snapshot: queue depth, jobs by state, and the cache tiers.
// Called once from NewScheduler.
func (o *Observability) observeScheduler(s *Scheduler) {
	o.workers.Set(float64(s.workers))
	o.Reg.OnCollect(func() {
		m := s.Metrics()
		o.queueDepth.Set(float64(m.QueueDepth))
		for _, st := range []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCancelled} {
			o.jobsByState.With(string(st)).Set(float64(m.Jobs[string(st)]))
		}
		if m.ResultCache != nil {
			o.mirrorResultCache(*m.ResultCache)
		}
		if gs := m.GraphCache; gs != nil {
			o.cacheHits.With("graph", "mem").Set(float64(gs.Hits))
			o.cacheMisses.With("graph").Set(float64(gs.Misses))
			o.cacheEntries.With("graph").Set(float64(gs.Size))
		}
	})
}

// mirrorResultCache copies one consistent result-cache snapshot into
// the cache instruments. A single-tier LRU reports no tier breakdown;
// its hits all count as the mem tier.
func (o *Observability) mirrorResultCache(st CacheStats) {
	memHits, diskHits := st.MemHits, st.DiskHits
	if memHits == 0 && diskHits == 0 {
		memHits = st.Hits
	}
	o.cacheHits.With("result", "mem").Set(float64(memHits))
	o.cacheHits.With("result", "disk").Set(float64(diskHits))
	o.cacheMisses.With("result").Set(float64(st.Misses))
	o.cacheEntries.With("result").Set(float64(st.Size))
	o.cachePromotions.Set(float64(st.Promotions))
}
