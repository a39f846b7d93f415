// Command gossipd runs the live gossip cluster.
//
// Node mode (default) hosts one gossip node: a TCP listener whose
// dispatcher speaks the push/pull gossip plane and the coordinator's
// control plane. A fleet of gossipd processes plus one coordinator is
// a real cluster:
//
//	gossipd -addr 127.0.0.1:7946 -exit-on-shutdown
//
// Coordinator mode (-coordinator) stands a cluster up — self-hosted
// loopback nodes by default, or already-running gossipd processes via
// -peers — runs live trials of a (family, protocol, timing) cell, and
// with -overlay (the default) closes the loop against the simulator:
// the identical cell runs on the service executor and the two
// normalized coverage curves are compared, with the spreading-time
// ratio as the headline (experiment E16).
//
//	gossipd -coordinator -family complete -n 16 -protocol push-pull -timing sync -loss 0.1
//	gossipd -coordinator -peers 127.0.0.1:7946,127.0.0.1:7947 -family cycle -n 2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"rumor/internal/gossip"
	"rumor/internal/harness"
	"rumor/internal/obs"
	"rumor/internal/peers"
	"rumor/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gossipd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("gossipd", flag.ContinueOnError)
	var (
		coordinator = fs.Bool("coordinator", false, "run the trial coordinator instead of one node")

		// Node mode.
		addr     = fs.String("addr", "127.0.0.1:0", "node mode: TCP listen address")
		exitShut = fs.Bool("exit-on-shutdown", false, "node mode: exit the process after a SHUTDOWN message")

		// Coordinator mode: cluster shape.
		peerList = fs.String("peers", "", "coordinator: comma-separated gossipd node addresses (host:port); empty = self-host")

		// Coordinator mode: the cell.
		family    = fs.String("family", "complete", "graph family: "+strings.Join(harness.FamilyNames(), ", "))
		n         = fs.Int("n", 16, "target graph size")
		protocol  = fs.String("protocol", "push-pull", "protocol: push, pull, push-pull")
		timing    = fs.String("timing", "sync", "timing model: sync, async")
		loss      = fs.Float64("loss", 0, "per-transmission loss probability in [0, 1)")
		threshold = fs.Int("threshold", 0, "counter-based acceptance: accept after this many hearings (0/1 = immediate)")
		latency   = fs.String("latency", "", "per-link latency: fixed:5ms, exp:10ms, uniform:2ms (empty = none)")
		seed      = fs.Uint64("seed", 1, "root RNG seed (graph and trials)")
		source    = fs.Int("source", 0, "rumor source vertex")
		timeUnit  = fs.Duration("time-unit", gossip.DefaultTimeUnit, "async: wall-clock length of one protocol time unit")
		maxRounds = fs.Int("max-rounds", gossip.DefaultMaxRounds, "sync: round cap per trial")
		maxWait   = fs.Duration("max-wait", gossip.DefaultMaxWait, "async: wall-clock cap per trial")

		// Coordinator mode: the run.
		trials     = fs.Int("trials", 3, "live trials")
		simTrials  = fs.Int("sim-trials", 5, "simulator trials for the overlay")
		overlay    = fs.Bool("overlay", true, "run the E16 overlay (live vs simulator); false = live trials only")
		maxRatio   = fs.Float64("max-ratio", 0, "fail (exit 1) if the overlay ratio is not in (0, max-ratio]; 0 disables")
		jsonOut    = fs.Bool("json", false, "emit JSON instead of text")
		metricsOut = fs.String("metrics-out", "", "write a Prometheus metrics snapshot to this file (\"-\" = stderr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg := obs.NewRegistry()
	metrics := gossip.NewMetrics(reg)
	defer func() {
		// The snapshot is written on every exit path (a failed run's
		// counters matter most); its own failure fails a clean run.
		if *metricsOut != "" {
			if werr := obs.WriteSnapshot(*metricsOut, reg.WriteText); werr != nil && err == nil {
				err = fmt.Errorf("-metrics-out: %w", werr)
			}
		}
	}()

	if !*coordinator {
		return runNode(*addr, *exitShut, metrics, stdout)
	}

	lat, err := gossip.ParseLatency(*latency)
	if err != nil {
		return err
	}
	cell := service.CellSpec{
		Family:    *family,
		N:         *n,
		Protocol:  *protocol,
		Timing:    *timing,
		LossProb:  *loss,
		Trials:    *simTrials,
		GraphSeed: *seed,
		TrialSeed: *seed + 1,
		Source:    *source,
	}
	g, err := service.BuildGraph(cell)
	if err != nil {
		return err
	}
	cluster, err := buildCluster(*peerList, g.NumNodes(), metrics)
	if err != nil {
		return err
	}
	defer cluster.Close()
	if err := cluster.Ping(); err != nil {
		return fmt.Errorf("cluster ping: %w", err)
	}
	live := gossip.LiveRunner{Cluster: cluster, Spec: gossip.TrialSpec{
		Threshold: *threshold,
		TimeUnit:  *timeUnit,
		Latency:   lat,
		MaxRounds: *maxRounds,
		MaxWait:   *maxWait,
	}}
	// SIGINT/SIGTERM end the trial in flight with its SHUTDOWN sweep.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if !*overlay {
		cell.Trials = *trials
		_, results, err := live.RunTrials(ctx, cell)
		if err != nil {
			return err
		}
		return printTrials(results, *jsonOut, stdout)
	}

	res, err := gossip.RunOverlay(ctx, live, &service.Executor{}, cell, *trials)
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else if err := res.RenderText(stdout); err != nil {
		return err
	}
	if *maxRatio > 0 {
		if res.Ratio <= 0 {
			return fmt.Errorf("overlay ratio unavailable (incomplete coverage: %d live trials short)", res.LiveIncomplete)
		}
		if res.Ratio > *maxRatio {
			return fmt.Errorf("overlay ratio %.3f exceeds -max-ratio %.3f", res.Ratio, *maxRatio)
		}
	}
	return nil
}

// runNode hosts one gossip node until SIGINT/SIGTERM (or a SHUTDOWN
// message with -exit-on-shutdown).
func runNode(addr string, exitShut bool, metrics *gossip.Metrics, stdout io.Writer) error {
	node := gossip.NewNode(metrics)
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	if exitShut {
		node.OnShutdown(func() {
			select {
			case done <- syscall.SIGTERM:
			default:
			}
		})
	}
	if err := node.Listen(addr); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "gossipd node listening on %s\n", node.Addr())
	<-done
	return node.Close()
}

// buildCluster attaches to the listed remote nodes (the runner refuses a
// fleet of another size than the graph) or, with none listed, self-hosts
// one loopback node per vertex of the graph.
func buildCluster(peerList string, graphN int, metrics *gossip.Metrics) (*gossip.Cluster, error) {
	if peerList == "" {
		return gossip.NewSelfHost(graphN, metrics)
	}
	addrs, err := peers.ParseAddrList(peerList)
	if err != nil {
		return nil, fmt.Errorf("-peers: %w", err)
	}
	return gossip.Attach(addrs, metrics)
}

// printTrials writes the live trials of a run without the simulator
// comparison, one line each.
func printTrials(results []*gossip.TrialResult, jsonOut bool, stdout io.Writer) error {
	for t, res := range results {
		if jsonOut {
			if err := json.NewEncoder(stdout).Encode(res); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintf(stdout, "trial %d: %s informed=%d/%d spread=%s rounds=%d wall=%s sent=%d dropped=%d\n",
			t, res.Graph, res.Informed, res.N, fmtSpread(res.SpreadTime), res.Rounds, res.Wall.Round(timeRounding), res.Sent, res.Dropped)
	}
	return nil
}

const timeRounding = 1e6 // 1ms, as a time.Duration

func fmtSpread(v float64) string {
	if v < 0 {
		return "incomplete"
	}
	return fmt.Sprintf("%.3f", v)
}
