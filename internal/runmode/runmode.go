// Package runmode turns the CLIs' execution-mode flags into the one
// thing they all select: a service.CellRunner. rumorsim and experiments
// run the same cells in-process (always over a result LRU, tiered over
// a persistent store with -cache-dir), on one daemon (-server) or
// sharded over several (-peers); this is the single place that knows
// which flags combine, what each mode's -metrics-out snapshot is, and
// what must be closed before the process exits.
package runmode

import (
	"context"
	"fmt"
	"io"

	"rumor/client"
	"rumor/internal/cachestore"
	"rumor/internal/obs"
	"rumor/internal/peers"
	"rumor/internal/service"
	"rumor/internal/shard"
)

// Config is the mode selection, one field per flag. A CLI that does not
// expose a flag leaves its field zero.
type Config struct {
	Server   string // -server: rumord base URL
	Peers    string // -peers: comma-separated rumord base URLs
	CacheDir string // -cache-dir: persistent result store under the LRU

	// CellWorkers and TrialWorkers shape the in-process executor (see
	// service.Executor); remote modes ignore them. TrialWorkers 0 lets
	// each cell borrow the cores the other cell workers leave idle, so
	// rumorsim's one cell worker runs min(trials, GOMAXPROCS) trials at
	// once; a daemon's trial parallelism is its own -trial-workers (1
	// unless set).
	CellWorkers  int
	TrialWorkers int

	// Metrics asks for a snapshot source (-metrics-out was given). The
	// in-process and -peers modes then carry their own registry; without
	// it they run un-instrumented.
	Metrics bool

	// ClientOptions are applied to every SDK client the remote modes
	// build (tests inject faulting transports here).
	ClientOptions []client.Option
}

// Runner is a cell runner plus the two things its mode owes the CLI.
type Runner struct {
	service.CellRunner
	// Snapshot writes one Prometheus exposition of the run: the local
	// registry (rumor_scheduler_*/rumor_cache_* for in-process modes,
	// rumor_shard_* for -peers), or a scrape of the -server daemon.
	Snapshot func(io.Writer) error
	// Close flushes what the mode holds open (the -cache-dir store).
	Close func() error
}

// New validates the flag combination and builds the runner.
func New(cfg Config) (*Runner, error) {
	remote := ""
	switch {
	case cfg.Peers != "" && cfg.Server != "":
		return nil, fmt.Errorf("-peers is incompatible with -server: cells either shard over the peers or run on one daemon")
	case cfg.Peers != "":
		remote = "-peers"
	case cfg.Server != "":
		remote = "-server"
	}
	if remote != "" && cfg.CacheDir != "" {
		return nil, fmt.Errorf("-cache-dir is in-process only; with %s, caching is the daemon's (-result-cache/-cache-dir)", remote)
	}
	var reg *obs.Registry // nil (un-instrumented) unless a snapshot is wanted
	if cfg.Metrics {
		reg = obs.NewRegistry()
	}
	r := &Runner{Snapshot: reg.WriteText, Close: func() error { return nil }}
	switch remote {
	case "-server":
		c, err := client.New(cfg.Server, cfg.ClientOptions...)
		if err != nil {
			return nil, err
		}
		r.CellRunner = c
		r.Snapshot = func(w io.Writer) error {
			data, err := c.PromMetricsText(context.Background())
			if err != nil {
				return fmt.Errorf("-metrics-out: scraping daemon: %w", err)
			}
			_, err = w.Write(data)
			return err
		}
	case "-peers":
		urls, err := peers.ParseURLList(cfg.Peers)
		if err != nil {
			return nil, fmt.Errorf("-peers: %w", err)
		}
		r.CellRunner, err = shard.New(shard.Config{
			Peers:         urls,
			ClientOptions: cfg.ClientOptions,
			Metrics:       shard.NewMetrics(reg),
		})
		if err != nil {
			return nil, err
		}
	default:
		// Results are pure functions of their keys, so the result LRU
		// changes no byte: it only serves repeated cells.
		exec := &service.Executor{
			CellWorkers:  cfg.CellWorkers,
			TrialWorkers: cfg.TrialWorkers,
			Results:      service.NewResultCache(0),
			Graphs:       service.NewGraphCache(0),
			Obs:          service.NewObservability(reg, nil),
		}
		r.CellRunner = exec
		if cfg.CacheDir != "" {
			store, err := cachestore.Open(cachestore.Options{
				Dir:            cfg.CacheDir,
				KeyVersion:     service.CellKeyVersion,
				CompatVersions: service.CellKeyCompatVersions(),
			})
			if err != nil {
				return nil, fmt.Errorf("opening cache store: %w", err)
			}
			exec.Results = service.NewTieredResultCache(service.NewResultCache(0), store)
			// Close flushes the write-behind queue: everything this run
			// computed must be durable before the process exits, or the
			// next run recomputes it.
			r.Close = store.Close
		}
	}
	return r, nil
}
