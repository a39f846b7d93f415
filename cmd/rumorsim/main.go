// Command rumorsim runs rumor spreading simulations from the command
// line: single measurements or size sweeps over any standard graph
// family, with any protocol and timing model. With -server it runs the
// same cells on a rumord daemon through the typed client SDK instead
// of in-process — same cells, same bytes, different executor.
//
// Examples:
//
//	rumorsim -graph hypercube -n 1024 -protocol push-pull -timing both -trials 200
//	rumorsim -graph star -n 4096 -protocol push -timing sync -trials 50
//	rumorsim -graph diamond -sweep 512,1331,4096 -timing both -csv
//	rumorsim -graph hypercube -n 4096 -server http://localhost:8080
//	rumorsim -graph gnp-threshold -n 512 -dynamic resample
//	rumorsim -graph hypercube -n 256 -churn "5@2:leave,5@8:join-drop"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rumor"
	"rumor/internal/core"
	"rumor/internal/harness"
	"rumor/internal/obs"
	"rumor/internal/runmode"
	"rumor/internal/service"
	"rumor/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rumorsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rumorsim", flag.ContinueOnError)
	var (
		graphName  = fs.String("graph", "hypercube", "graph family: "+strings.Join(harness.FamilyNames(), ", "))
		n          = fs.Int("n", 1024, "target graph size")
		sweep      = fs.String("sweep", "", "comma-separated sizes (overrides -n)")
		protoName  = fs.String("protocol", "push-pull", "protocol: push, pull, push-pull")
		timing     = fs.String("timing", "both", "timing model: sync, async, both")
		trials     = fs.Int("trials", 100, "trials per measurement")
		seed       = fs.Uint64("seed", 1, "root RNG seed")
		source     = fs.Int("source", 0, "source node")
		workers    = fs.Int("workers", 0, "parallel workers (0 = all cores)")
		loss       = fs.Float64("loss", 0, "per-contact loss probability in [0, 1)")
		view       = fs.String("view", "", "async process view: global-clock, per-node-clocks, per-edge-clocks")
		dynamic    = fs.String("dynamic", "", "time-varying topology: resample (fresh instance per epoch) or perturb (edge-Markovian evolution)")
		dynPeriod  = fs.Float64("dynamic-period", 0, "epoch length in rounds/time units for -dynamic (0 = 1)")
		perturb    = fs.Float64("perturb-rate", 0, "per-epoch edge flip rate in (0, 1] for -dynamic perturb")
		churnSpec  = fs.String("churn", "", "comma-separated churn events node@time:op, op in leave, join, join-drop (e.g. 5@2:leave,5@8:join-drop)")
		csv        = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		server     = fs.String("server", "", "run the cells on a rumord server at this base URL (typed client SDK) instead of in-process")
		curve      = fs.Bool("curve", false, "emit the mean spreading curve (informed fraction vs time) instead of summary rows")
		curvePts   = fs.Int("curve-points", 40, "number of grid points for -curve")
		metricsOut = fs.String("metrics-out", "", "write a Prometheus metrics snapshot to this file after the run (\"-\" = stderr); with -server, scrapes the daemon")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	proto, err := service.ParseProtocol(*protoName)
	if err != nil {
		return err
	}
	if *timing != "sync" && *timing != "async" && *timing != "both" {
		return fmt.Errorf("unknown timing %q (want sync, async, both)", *timing)
	}
	fam, err := harness.FamilyByName(*graphName)
	if err != nil {
		return err
	}
	churn, err := parseChurn(*churnSpec)
	if err != nil {
		return err
	}
	if *curve {
		if *dynamic != "" || len(churn) > 0 || *sweep != "" {
			return fmt.Errorf("-curve does not support -dynamic, -churn or -sweep (it samples static full trajectories on one graph)")
		}
		if *server != "" {
			return fmt.Errorf("-curve runs in-process only (it samples full trajectories, not cells)")
		}
		if !(*loss >= 0 && *loss < 1) {
			return fmt.Errorf("-loss = %v (want [0, 1))", *loss)
		}
		asyncView, err := service.ParseView(*view)
		if err != nil {
			return err
		}
		g, err := fam.Build(*n, *seed)
		if err != nil {
			return err
		}
		return emitCurves(g, rumor.NodeID(*source),
			rumor.SyncConfig{Protocol: proto, TransmitProb: 1 - *loss},
			rumor.AsyncConfig{Protocol: proto, TransmitProb: 1 - *loss, View: asyncView},
			*timing, *trials, *seed, *curvePts, *csv)
	}
	sizes := []int{*n}
	if *sweep != "" {
		sizes = sizes[:0]
		for _, part := range strings.Split(*sweep, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad sweep entry %q: %v", part, err)
			}
			sizes = append(sizes, v)
		}
	}

	// Summary rows run through the same cell model as the rumord
	// service: one cell list, executed either by the in-process
	// executor (cells serial, trials parallel — the historical CLI
	// parallelism shape) or — with -server — by a rumord daemon through
	// the client SDK. Results are byte-identical either way; only where
	// they compute changes. Locally both tiers are always on (sync and
	// async of one sweep size share one built instance, a repeated sweep
	// size is served from the result LRU); on a server the daemon's own
	// tiers apply. With -metrics-out a local run carries
	// its own registry (the same instruments rumord exports), so a CLI
	// sweep's latency histograms and cache counters land in a
	// scrape-compatible snapshot.
	runner, err := runmode.New(runmode.Config{
		Server:       *server,
		CellWorkers:  1,
		TrialWorkers: *workers,
		Metrics:      *metricsOut != "",
	})
	if err != nil {
		return err
	}
	defer runner.Close()
	var timings []string
	if *timing == "sync" || *timing == "both" {
		timings = append(timings, service.TimingSync)
	}
	if *timing == "async" || *timing == "both" {
		timings = append(timings, service.TimingAsync)
	}
	var cells []service.CellSpec
	var cellTimings []string
	for _, size := range sizes {
		for _, tm := range timings {
			trialSeed := *seed
			if tm == service.TimingAsync {
				trialSeed = *seed + 1
			}
			cell := service.CellSpec{
				Family:    *graphName,
				N:         size,
				Protocol:  proto.String(),
				Timing:    tm,
				LossProb:  *loss,
				Trials:    *trials,
				GraphSeed: *seed,
				TrialSeed: trialSeed,
				Source:    *source,
			}
			if tm == service.TimingAsync {
				cell.View = *view
			}
			cell.Dynamic = *dynamic
			cell.DynamicPeriod = *dynPeriod
			cell.PerturbRate = *perturb
			cell.Churn = churn
			cells = append(cells, cell)
			cellTimings = append(cellTimings, tm)
		}
	}
	results, err := runner.StreamCells(context.Background(), cells, nil)
	if err != nil {
		return err
	}
	tab := stats.NewTable("graph", "n", "m", "timing", "protocol",
		"mean", "median", "q99", "max", "stderr")
	for i, res := range results {
		addRow(tab, res, cellTimings[i], proto)
	}
	if *csv {
		err = tab.WriteCSV(os.Stdout)
	} else {
		err = tab.Render(os.Stdout)
	}
	if err != nil {
		return err
	}
	if *metricsOut != "" {
		return obs.WriteSnapshot(*metricsOut, runner.Snapshot)
	}
	return nil
}

func addRow(tab *stats.Table, res *service.CellResult, timing string, proto core.Protocol) {
	s := res.Summary
	tab.AddRow(res.Graph, res.N, res.M, timing, proto.String(),
		s.Mean, s.Median, stats.Quantile(res.Times, 0.99), s.Max, stats.StdErr(res.Times))
}

// emitCurves prints the trial-averaged informed fraction on a uniform
// time grid, for the sync and/or async process — the data behind a
// "fraction informed vs time" figure.
func emitCurves(g *rumor.Graph, src rumor.NodeID, scfg rumor.SyncConfig, acfg rumor.AsyncConfig, timing string, trials int, seed uint64, points int, csv bool) error {
	if points < 2 {
		points = 2
	}
	type series struct {
		name   string
		curves []*core.Curve
		maxT   float64
	}
	var all []series
	if timing == "sync" || timing == "both" {
		s := series{name: "sync"}
		for i := 0; i < trials; i++ {
			res, err := rumor.RunSync(g, src, scfg, rumor.NewRNG(seed+uint64(i)))
			if err != nil {
				return err
			}
			c := res.Curve()
			s.curves = append(s.curves, c)
			if t := float64(res.Rounds); t > s.maxT {
				s.maxT = t
			}
		}
		all = append(all, s)
	}
	if timing == "async" || timing == "both" {
		s := series{name: "async"}
		for i := 0; i < trials; i++ {
			res, err := rumor.RunAsync(g, src, acfg, rumor.NewRNG(seed+uint64(i)+7777777))
			if err != nil {
				return err
			}
			s.curves = append(s.curves, res.Curve())
			if res.Time > s.maxT {
				s.maxT = res.Time
			}
		}
		all = append(all, s)
	}
	header := []string{"t"}
	for _, s := range all {
		header = append(header, "mean-frac-"+s.name)
	}
	tab := stats.NewTable(header...)
	maxT := 0.0
	for _, s := range all {
		if s.maxT > maxT {
			maxT = s.maxT
		}
	}
	for i := 0; i < points; i++ {
		t := maxT * float64(i) / float64(points-1)
		row := make([]interface{}, 0, len(all)+1)
		row = append(row, t)
		for _, s := range all {
			var sum float64
			for _, c := range s.curves {
				sum += c.FractionAt(t)
			}
			row = append(row, sum/float64(len(s.curves)))
		}
		tab.AddRow(row...)
	}
	if csv {
		return tab.WriteCSV(os.Stdout)
	}
	return tab.Render(os.Stdout)
}

// parseChurn parses the -churn flag: comma-separated node@time:op
// entries, op one of leave, join, join-drop. Listed order is preserved
// (same-time events apply in listed order).
func parseChurn(spec string) ([]service.ChurnSpec, error) {
	if spec == "" {
		return nil, nil
	}
	var churn []service.ChurnSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		at := strings.IndexByte(part, '@')
		colon := strings.LastIndexByte(part, ':')
		if at < 0 || colon < at {
			return nil, fmt.Errorf("bad churn entry %q (want node@time:op)", part)
		}
		node, err := strconv.Atoi(part[:at])
		if err != nil {
			return nil, fmt.Errorf("bad churn node in %q: %v", part, err)
		}
		t, err := strconv.ParseFloat(part[at+1:colon], 64)
		if err != nil {
			return nil, fmt.Errorf("bad churn time in %q: %v", part, err)
		}
		ev := service.ChurnSpec{Node: node, Time: t}
		switch part[colon+1:] {
		case "leave":
			ev.Op = service.ChurnOpLeave
		case "join":
			ev.Op = service.ChurnOpJoin
		case "join-drop":
			ev.Op = service.ChurnOpJoin
			ev.DropState = true
		default:
			return nil, fmt.Errorf("bad churn op in %q (want leave, join, join-drop)", part)
		}
		churn = append(churn, ev)
	}
	return churn, nil
}
