// Command experiments regenerates the paper's evaluation: it runs the
// experiment suite (every theorem, corollary, lemma, and worked example
// the paper states, plus the dynamic-graph extension)
// and prints paper-expected versus measured results with a verdict per
// experiment.
//
// Every experiment is a grid of service cells reduced by a pure
// function; this command runs the grids through the same executor the
// rumord daemon uses, so a result computed here is byte-identical with
// the daemon's (and repeated cells — e.g. the grid E2 and E3 share — are
// served from the result LRU, computed once). The suite's grids go to the
// runner as one batch, and each experiment prints as soon as its cells
// and those of every experiment before it are in.
//
// Examples:
//
//	experiments                      # full suite (minutes)
//	experiments -quick               # reduced sizes/trials (seconds)
//	experiments -run E11             # a single experiment
//	experiments -quick -cache-dir D  # persistent cache: warm replay survives restarts
//	experiments -quick -metrics-out M.prom
//	                                 # dump a Prometheus snapshot of the
//	                                 # run's latency histograms and cache
//	                                 # counters (with -server, scrape the
//	                                 # daemon's /metrics instead)
//	experiments -quick -server http://localhost:8080
//	                                 # run every cell on a rumord daemon via
//	                                 # the client SDK; verdicts and output are
//	                                 # byte-identical to the in-process path,
//	                                 # and dropped result streams resume from
//	                                 # their cursor without recomputation
//	experiments -quick -peers host-a:8080,host-b:8080,host-c:8080
//	                                 # shard every cell over a cluster of
//	                                 # rumord peers by cell key; a peer that
//	                                 # dies mid-suite has its unfinished cells
//	                                 # reassigned to the survivors, and the
//	                                 # output stays byte-identical
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rumor/client"
	"rumor/internal/experiments"
	"rumor/internal/obs"
	"rumor/internal/runmode"
)

// clientOptions are applied to the SDK clients -server and -peers build
// (test hook: fault-injection tests install cutting or peer-killing
// transports to force a mid-suite stream reconnect or failover).
var clientOptions []client.Option

// errVerdictFailed reports that an experiment contradicted the paper:
// run returns it (rather than calling os.Exit directly) so deferred
// cleanup — flushing the persistent cache — still happens.
var errVerdictFailed = errors.New("experiments: at least one verdict is FAILED")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, errVerdictFailed) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		quick      = fs.Bool("quick", false, "reduced sizes and trial counts")
		runID      = fs.String("run", "", "run a single experiment (E1..E12, E14, E15, E17)")
		seed       = fs.Uint64("seed", 0, "root seed (0 = default)")
		workers    = fs.Int("workers", 0, "parallel cells in flight (0 = all cores)")
		markdown   = fs.String("md", "", "also write a Markdown report to this file")
		cacheDir   = fs.String("cache-dir", "", "persistent cell-result store directory: cells computed by any prior run (or a rumord with the same dir) replay from disk")
		server     = fs.String("server", "", "run every cell on a rumord server at this base URL via the client SDK (reducers still run locally; output is byte-identical to the in-process path)")
		peersFlag  = fs.String("peers", "", "comma-separated rumord peer base URLs: shard every cell over the cluster by cell key, with failover (like -server across many daemons; output stays byte-identical)")
		metricsOut = fs.String("metrics-out", "", "write a Prometheus metrics snapshot to this file after the suite (\"-\" = stderr); with -server, scrapes the daemon")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Every mode is a cell runner; with -metrics-out a local or -peers
	// run carries its own registry (the instruments rumord exports, or
	// the coordinator's rumor_shard_* families), so a batch leaves behind
	// a scrape-compatible record.
	runner, err := runmode.New(runmode.Config{
		Server:        *server,
		Peers:         *peersFlag,
		CacheDir:      *cacheDir,
		CellWorkers:   *workers,
		Metrics:       *metricsOut != "",
		ClientOptions: clientOptions,
	})
	if err != nil {
		return err
	}
	defer runner.Close()
	cfg := experiments.Config{
		Quick:   *quick,
		Seed:    *seed,
		Workers: *workers,
		Out:     stdout,
		Runner:  runner,
	}
	suiteErr := runSuite(cfg, *runID, *markdown, stdout)
	if suiteErr != nil && !errors.Is(suiteErr, errVerdictFailed) {
		return suiteErr
	}
	// A FAILED verdict is still a completed suite: the snapshot (with
	// its error counters) is most useful exactly then.
	if *metricsOut != "" {
		if err := obs.WriteSnapshot(*metricsOut, runner.Snapshot); err != nil {
			return err
		}
	}
	return suiteErr
}

// runSuite runs one experiment (runID != "") or the whole suite on
// cfg's runner — in-process or SDK-backed, the output is the same
// bytes.
func runSuite(cfg experiments.Config, runID, markdown string, stdout io.Writer) error {
	if runID != "" {
		e, err := experiments.ByID(runID)
		if err != nil {
			return err
		}
		o, err := e.Run(cfg)
		if err != nil {
			return err
		}
		if o.Verdict == experiments.Failed {
			return errVerdictFailed
		}
		return nil
	}
	outcomes, err := experiments.RunAll(cfg)
	if err != nil {
		return err
	}
	if markdown != "" {
		f, err := os.Create(markdown)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiments.WriteMarkdownReport(f, outcomes, cfg, time.Now()); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", markdown)
	}
	for _, o := range outcomes {
		if o.Verdict == experiments.Failed {
			return errVerdictFailed
		}
	}
	return nil
}
