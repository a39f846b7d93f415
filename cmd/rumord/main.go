// Command rumord serves rumor-spreading simulation jobs over HTTP: a
// bounded worker pool executes batches of simulation cells with
// deterministic seeding, a two-tier cache (cell results + constructed
// graphs) exploits the purity of every measurement, and results stream
// back as NDJSON while a job runs. The paper's experiment suite
// rides the same scheduler: each experiment runs as a job whose cells
// stream back followed by the experiment's verdict.
//
// Example session:
//
//	rumord -addr :8080 &
//	curl -s localhost:8080/v1/jobs -d '{
//	    "families": ["hypercube", "complete"], "sizes": [256, 1024],
//	    "protocols": ["push-pull"], "timings": ["sync", "async"],
//	    "trials": 100, "seed": 1}'
//	curl -s localhost:8080/v1/jobs/job-00000001
//	curl -sN localhost:8080/v1/jobs/job-00000001/results
//	curl -s localhost:8080/v1/experiments
//	curl -sN localhost:8080/v1/experiments/e11 -d '{"quick": true}'
//	curl -s localhost:8080/v1/cache
//	curl -s localhost:8080/metrics
//
// GET /metrics serves the Prometheus text exposition (latency
// histograms, per-route request counters, queue and cache series).
// -log-format=json|text selects the structured log encoding, and
// -pprof mounts net/http/pprof under /debug/pprof/ for live profiling.
//
// With -cache-dir the completed-cell cache gains a persistent tier
// (internal/cachestore): results survive restarts, so a rebooted
// daemon replays previously computed cells from disk instead of
// recomputing them. GET /v1/cache reports the tier breakdown.
//
// SIGINT/SIGTERM drains gracefully: in-flight and queued cells finish
// (up to -drain-timeout), then the persistent tier is flushed and the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rumor/internal/cachestore"
	"rumor/internal/experiments"
	"rumor/internal/obs"
	peerlist "rumor/internal/peers"
	"rumor/internal/service"
	"rumor/internal/shard"
)

// onListen, when non-nil, receives the bound listen address (test hook
// for -addr :0).
var onListen func(net.Addr)

// The HTTP server's connection deadlines: a request header must arrive
// within readHeaderTimeout, and a keep-alive connection with no request
// for idleTimeout is closed. There is no write timeout and no deadline on
// a whole request: a job's NDJSON and SSE streams last as long as the job.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rumord:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rumord", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "cell worker pool size (0 = all cores)")
		trialWorkers = fs.Int("trial-workers", 1, "per-cell trial parallelism")
		queueLimit   = fs.Int("queue", 4096, "max pending cells before submits are rejected")
		resultCap    = fs.Int("result-cache", 4096, "cell result LRU capacity (0 disables the tier)")
		graphCap     = fs.Int("graph-cache", 64, "constructed graph LRU capacity (0 disables the tier)")
		cacheDir     = fs.String("cache-dir", "", "persistent cell-result store directory (empty = in-memory only); results survive restarts")
		jobRetention = fs.Int("job-retention", 256, "terminal jobs kept for status/result queries")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "max time to drain on shutdown")
		logFormat    = fs.String("log-format", "text", "structured log format: json|text")
		logLevel     = fs.String("log-level", "info", "log level: debug|info|warn|error")
		pprofOn      = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		peers        = fs.String("peers", "", "comma-separated rumord peer base URLs (host:port ok); when set, this daemon coordinates: jobs shard over the peers by cell key instead of running locally")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	observ := service.NewObservability(reg, logger)

	if *peers != "" {
		if *cacheDir != "" {
			return fmt.Errorf("-cache-dir is incompatible with -peers: a coordinator computes nothing locally, so the persistent tier belongs on the peers")
		}
		peerURLs, err := peerlist.ParseURLList(*peers)
		if err != nil {
			return fmt.Errorf("-peers: %w", err)
		}
		co, err := shard.New(shard.Config{
			Peers:   peerURLs,
			Metrics: shard.NewMetrics(reg),
			Log:     logger,
		})
		if err != nil {
			return err
		}
		logger.Info("coordinating over peers", "peers", co.Peers())
		sched := service.NewScheduler(service.SchedulerConfig{
			QueueLimit:   *queueLimit,
			JobRetention: *jobRetention,
			Obs:          observ,
			Remote:       co,
		})
		return serve(sched, nil, observ, logger, *addr, *pprofOn, *drainTimeout)
	}

	var results service.ResultStore
	var tiered *service.TieredResultCache
	if *resultCap > 0 {
		lru := service.NewResultCache(*resultCap)
		if *cacheDir != "" {
			store, err := cachestore.Open(cachestore.Options{
				Dir:            *cacheDir,
				KeyVersion:     service.CellKeyVersion,
				CompatVersions: service.CellKeyCompatVersions(),
				Logf: func(format string, args ...interface{}) {
					logger.Info(fmt.Sprintf(format, args...))
				},
				Metrics: cachestore.NewMetrics(reg),
			})
			if err != nil {
				return fmt.Errorf("opening cache store: %w", err)
			}
			st := store.Stats()
			logger.Info("cache store opened", "dir", *cacheDir,
				"records", st.Records, "segments", st.Segments, "bytes", st.Bytes)
			tiered = service.NewTieredResultCache(lru, store)
			// Close is idempotent; this backstop flushes the
			// write-behind queue even when run exits through a fatal
			// server error rather than the SIGTERM drain below.
			defer tiered.Close()
			results = tiered
		} else {
			results = lru
		}
	} else if *cacheDir != "" {
		return fmt.Errorf("-cache-dir needs the result-cache tier (set -result-cache > 0)")
	}
	var graphs *service.GraphCache
	if *graphCap > 0 {
		graphs = service.NewGraphCache(*graphCap)
	}
	sched := service.NewScheduler(service.SchedulerConfig{
		Workers:      *workers,
		QueueLimit:   *queueLimit,
		TrialWorkers: *trialWorkers,
		JobRetention: *jobRetention,
		Results:      results,
		Graphs:       graphs,
		Obs:          observ,
	})
	return serve(sched, tiered, observ, logger, *addr, *pprofOn, *drainTimeout)
}

// serve mounts the HTTP surface on sched and runs until SIGINT/SIGTERM
// drains it. tiered, when non-nil, is flushed after the drain. Both the
// compute mode and the -peers coordinator mode funnel through here: the
// surfaces are identical, only what is behind the scheduler differs.
func serve(sched *service.Scheduler, tiered *service.TieredResultCache, observ *service.Observability, logger *slog.Logger, addr string, pprofOn bool, drainTimeout time.Duration) error {
	api := service.NewServer(sched, service.WithObservability(observ))
	experiments.Mount(api, sched)
	handler := http.Handler(api)
	if pprofOn {
		// Explicit handler registrations rather than the package's
		// DefaultServeMux side effects, so profiling is opt-in and the
		// API mux stays authoritative for every other path.
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", api)
		handler = outer
	}
	srv := &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "addr", ln.Addr().String(), "pprof", pprofOn)
	if onListen != nil {
		onListen(ln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	logger.Info("draining", "timeout", drainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Warn("http shutdown", "error", err.Error())
	}
	if err := sched.Shutdown(drainCtx); err != nil {
		logger.Warn("scheduler drain cut short", "error", err.Error())
	} else {
		logger.Info("drained cleanly")
	}
	// Flush the persistent tier after the drain so every result the
	// drained cells produced is durable before the process exits.
	if tiered != nil {
		if err := tiered.Close(); err != nil {
			logger.Warn("cache store close", "error", err.Error())
		} else {
			logger.Info("cache store flushed")
		}
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
