// Command bench is the repository's one layered benchmark: six named
// workloads that between them reach every module of the spine (engine,
// caches, scheduler, HTTP + SDK, shard coordinator, live gossip plane),
// end-to-end metrics a user of each surface would see, and per-layer
// metrics taken by timing calls into each module's public functions.
// It drives the program only through those public functions, generates
// every input from -seed, checks the outputs, and claims no gain.
//
//	bash bench/run.sh --workload suite_cold --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --seed 1 --trace both      # every workload, every metric
//	bash bench/run.sh --seed 1 --check-repeat    # two sets, same code
//	bash bench/run.sh --scale smoke --trace both # seconds, all checks on
//
// run.sh builds this package into .bench_build/ at the repository root
// and runs it from there; `go run ./bench` with the same flags works
// too.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics. README.md has the tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rumor/internal/stats"
)

// env is what a workload is given: the seed every input derives from,
// how long to measure, the sizes, and a scratch directory inside the
// checkout (the benchmark writes nowhere else).
type env struct {
	seed    uint64
	seconds float64
	sc      scale
	nproc   int
	tmp     string
	notes   io.Writer
	host    *hostProbe
}

// tempDir makes a fresh directory under the run's scratch root.
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.tmp, prefix+"-")
}

func (e *env) notef(format string, args ...interface{}) {
	fmt.Fprintf(e.notes, "# "+format+"\n", args...)
}

// scale fixes every size. full is what BENCHMARK.json measures; smoke
// is the same shapes at sizes that finish in about a second, for the
// tests.
type scale struct {
	name         string
	setupRepeats int // set-up is repeated and the median reported
	maxOps       int // per measure call; 0 = until the deadline
	sectionJobs  int // the same for the service workloads' jobs, over all clients
	suiteWarmups int
	largeN       int
	jobCells     int // cells per job on the service workloads
	warmupJobs   int // service_small_cells jobs run before timing
	replayJobs   int // service_warm_replay jobs per pass
	shardCells   int
	shardTrials  int
	shardN       int
	gossipN      int
	gossipWarmup int
	checkCells   int // sample size of the byte-identity checks
	probeDraws   int // iterations of the nanosecond-scale probes
	probeCells   int // cells of the scheduler / stream probes
	probeJobs    int
	probeRecords int
	probeTrials  int
}

var scales = map[string]scale{
	"full": {
		name: "full", setupRepeats: 3, suiteWarmups: 1, largeN: 250_000,
		jobCells: 32, warmupJobs: 96, replayJobs: 320,
		shardCells: 64, shardTrials: 20, shardN: 4096,
		gossipN: 64, gossipWarmup: 3, checkCells: 256,
		probeDraws: 2_000_000, probeCells: 4096, probeJobs: 96, probeRecords: 8192, probeTrials: 6,
	},
	"smoke": {
		name: "smoke", setupRepeats: 1, maxOps: 1, suiteWarmups: 0, largeN: 10_000,
		sectionJobs: 4, jobCells: 32, warmupJobs: 2, replayJobs: 10,
		shardCells: 16, shardTrials: 3, shardN: 256,
		gossipN: 8, gossipWarmup: 0, checkCells: 32,
		probeDraws: 20_000, probeCells: 64, probeJobs: 4, probeRecords: 256, probeTrials: 1,
	},
}

// workload is one set of inputs and the closed loop that runs them.
type workload interface {
	// setUp does everything that precedes the timed section; the
	// harness times it as setup_s.
	setUp() error
	// measure runs the closed loop for d (or sc.maxOps operations).
	measure(d time.Duration) (*sample, error)
	// check verifies what measure (and traced) produced and returns how
	// many operations were examined and how many were wrong.
	check() (attempted, failed int)
	// traced runs the workload again with spans on.
	traced(tr *tracer, d time.Duration) (*tracedSample, error)
	tearDown()
}

// sample is what one timed section produced.
type sample struct {
	ops      []float64 // seconds per closed-loop operation
	work     float64   // work units delivered
	wall     float64   // seconds the work took
	workUnit string
	opUnit   string
	// counts that must repeat exactly for a seed (-check-repeat).
	exact map[string]float64
	// per-layer metrics the timed section measures as a by-product. They
	// are no part of the run's result (the probes measure the same names
	// on every traced run); -check-repeat lists them set against set.
	layer map[string]float64
}

func (s *sample) perUnit() float64 { return s.wall / s.work }

// tracedSample is what the traced pass produced.
type tracedSample struct {
	work, wall float64
	phases     map[string]float64
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	exact     map[string]float64
	layer     map[string]float64
}

func unitOf(specs []metricSpec, name string) string {
	for _, m := range specs {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("bench: metric " + name + " is not declared in spec.go")
}

// runEndToEnd is the --trace 0 run: repeated set-up, one timed section,
// the checks. The host is read throughout (host.go), and the metrics
// are reported at the reference reading.
func runEndToEnd(e *env, ws workloadSpec) (*report, error) {
	var setups []float64
	var w workload
	cal := e.host.calibrate()
	for i := 0; i < e.sc.setupRepeats; i++ {
		if w != nil {
			w.tearDown()
		}
		runtime.GC()
		w = ws.new(e)
		start := time.Now()
		if err := w.setUp(); err != nil {
			cal.finish()
			w.tearDown()
			return nil, fmt.Errorf("%s: set-up: %w", ws.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.tearDown()
	setupHost := cal.finish()
	cal = e.host.calibrate()
	s, err := w.measure(time.Duration(e.seconds * float64(time.Second)))
	host := cal.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ws.Name, err)
	}
	attempted, failed := w.check()
	rate, op, setup := s.work/s.wall, median(s.ops)*1e3, median(setups)
	e.notef("%s: work = %s, op = %s; %d ops, %.0f %s in %.3f s; set-up %d times",
		ws.Name, s.workUnit, s.opUnit, len(s.ops), s.work, s.workUnit, s.wall, len(setups))
	e.notef("%s: as measured: %s %.6g, %s %.6g, %s %.6g; host read %.2f ns in the timed section, %.2f ns in set-up (reference %.0f ns)",
		ws.Name, mWorkPerS, rate, mOpP50, op, mSetup, setup, host, setupHost, hostRefNS)
	return &report{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]value{
			mWorkPerS: {rate * host / hostRefNS, unitOf(endToEnd, mWorkPerS)},
			mOpP50:    {op * hostRefNS / host, unitOf(endToEnd, mOpP50)},
			mSetup:    {setup * hostRefNS / setupHost, unitOf(endToEnd, mSetup)},
		},
		exact: s.exact, layer: s.layer,
	}, nil
}

// tracedPass is the workload's half of a --trace 1 run: an untraced
// reference section, the same workload with spans on, and the checks.
// It returns the per-layer values that depend on the workload (run.*,
// trace.* and phase.*); the probes supply the rest.
func tracedPass(e *env, ws workloadSpec, traceOut string) (layer map[string]float64, attempted, failed int, err error) {
	w := ws.new(e)
	defer w.tearDown()
	if err := w.setUp(); err != nil {
		return nil, 0, 0, fmt.Errorf("%s: set-up: %w", ws.Name, err)
	}
	half := time.Duration(e.seconds * float64(time.Second) / 2)
	cal := e.host.calibrate()
	ref, err := w.measure(half)
	host := cal.finish()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: %w", ws.Name, err)
	}
	tr := newTracer()
	ts, err := w.traced(tr, half)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: traced pass: %w", ws.Name, err)
	}
	attempted, failed = w.check()
	if traceOut != "" {
		if err := tr.writeJSON(traceOut); err != nil {
			return nil, 0, 0, err
		}
	}
	layer = map[string]float64{
		"run.ops":              float64(len(ref.ops)),
		"run.op_p90_ms":        stats.Quantile(ref.ops, 0.90) * 1e3,
		"host.read_ns":         host,
		"trace.overhead_ratio": (ts.wall / ts.work) / ref.perUnit(),
		"trace.spans":          float64(tr.count()),
	}
	for name, v := range ts.phases {
		layer[name] = v
	}
	return layer, attempted, failed, nil
}

// layerReport renders measured per-layer values in spec.go's terms. A
// value spec.go does not declare is an error; so is a declared one that
// is missing, when the values are meant to be complete.
func layerReport(layer map[string]float64, attempted, failed int, complete bool) (*report, error) {
	rep := &report{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]value, len(layer)), exact: map[string]float64{}}
	for _, m := range perLayer {
		v, ok := layer[m.Name]
		if !ok {
			if complete {
				return nil, fmt.Errorf("per-layer metric %s was not measured", m.Name)
			}
			continue
		}
		rep.Metrics[m.Name] = value{v, m.Unit}
		if m.exact {
			rep.exact[m.Name] = v
		}
	}
	for name := range layer {
		if _, ok := rep.Metrics[name]; !ok {
			return nil, fmt.Errorf("measured %s, which spec.go does not declare", name)
		}
	}
	return rep, nil
}

// runTraced is the --trace 1 run of one workload: its traced pass, then
// the layer probes, so that the report holds every per-layer metric.
func runTraced(e *env, ws workloadSpec, traceOut string) (*report, error) {
	layer, attempted, failed, err := tracedPass(e, ws, traceOut)
	if err != nil {
		return nil, err
	}
	pa, pf, err := runProbes(e, layer)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return layerReport(layer, attempted+pa, failed+pf, true)
}

func printMetrics(w io.Writer, section string, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-22s %-34s %16.6g %s\n", section, n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, ws := range workloads {
		if ws.Name == name {
			return ws, true
		}
	}
	return workloadSpec{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run one workload (default: every workload in turn)")
		seed         = fs.Uint64("seed", 1, "root of every generated input")
		secs         = fs.Float64("seconds", runSeconds, "length of one timed section")
		traceMode    = fs.String("trace", "0", "0 = end-to-end metrics, 1 = traced pass and per-layer metrics, both = one after the other")
		scaleName    = fs.String("scale", "full", "full | smoke")
		checkRepeat  = fs.Bool("check-repeat", false, "run two sets back to back and report whether they agree within each metric's bound")
		traceOut     = fs.String("trace-out", "", "with -workload and -trace 1: write the spans to this file as JSON")
		printSpec    = fs.Bool("print-spec", false, "print the BENCHMARK.json this binary implements and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printSpec {
		return printBenchmarkJSON(stdout)
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown -scale %q\n", *scaleName)
		return 2
	}
	if *traceMode != "0" && *traceMode != "1" && *traceMode != "both" {
		fmt.Fprintf(stderr, "bench: -trace wants 0, 1 or both\n")
		return 2
	}
	selected := workloads
	if *workloadName != "" {
		ws, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown -workload %q\n", *workloadName)
			return 2
		}
		selected = []workloadSpec{ws}
	} else if *traceOut != "" {
		fmt.Fprintf(stderr, "bench: -trace-out wants -workload\n")
		return 2
	}

	// The scratch root sits in the working directory (the root of the
	// checkout under run.sh), and is removed on every exit path, a
	// signal included.
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(cwd, ".bench_tmp-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
			os.RemoveAll(tmp)
			os.Exit(130)
		case <-done:
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(done)
	}()

	e := &env{seed: *seed, seconds: *secs, sc: sc, nproc: runtime.GOMAXPROCS(0), tmp: tmp, notes: stderr, host: newHostProbe()}
	describeMachine(e)

	if *checkRepeat {
		return runCheckRepeat(e, selected, stdout)
	}

	// One workload: its report is the result. Every workload: a section
	// per workload, and the probes, which do not depend on the workload,
	// once in a section of their own.
	single := *workloadName != ""
	total := &report{Correct: true}
	sections := map[string]map[string]value{}
	add := func(section string, rep *report) {
		printMetrics(stdout, section, rep)
		total.Attempted += rep.Attempted
		total.Failed += rep.Failed
		total.Correct = total.Correct && rep.Correct
		if sections[section] == nil {
			sections[section] = map[string]value{}
		}
		for n, v := range rep.Metrics {
			sections[section][n] = v
		}
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, ws := range selected {
		if *traceMode != "1" {
			rep, err := runEndToEnd(e, ws)
			if err != nil {
				return fail(err)
			}
			add(ws.Name, rep)
		}
		if *traceMode == "0" {
			continue
		}
		var rep *report
		if single {
			rep, err = runTraced(e, ws, *traceOut)
		} else if layer, attempted, failed, terr := tracedPass(e, ws, ""); terr != nil {
			err = terr
		} else {
			rep, err = layerReport(layer, attempted, failed, false)
		}
		if err != nil {
			return fail(err)
		}
		add(ws.Name, rep)
	}
	if !single && *traceMode != "0" {
		layer := map[string]float64{}
		attempted, failed, err := runProbes(e, layer)
		if err != nil {
			return fail(fmt.Errorf("probes: %w", err))
		}
		rep, err := layerReport(layer, attempted, failed, false)
		if err != nil {
			return fail(err)
		}
		add(probeSection, rep)
	}
	fmt.Fprintf(stdout, "failed_share %d/%d = %g\n", total.Failed, total.Attempted,
		float64(total.Failed)/float64(total.Attempted))
	var last interface{}
	if single {
		total.Metrics = sections[selected[0].Name]
		last = total
	} else {
		// Metric names repeat across workloads, so the one-object form
		// would keep only the last workload's; key by section instead.
		last = struct {
			Correct   bool                        `json:"correct"`
			Attempted int                         `json:"attempted"`
			Failed    int                         `json:"failed"`
			Sections  map[string]map[string]value `json:"sections"`
		}{total.Correct, total.Attempted, total.Failed, sections}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		fmt.Fprintf(stderr, "bench: %d of %d checked operations failed\n", total.Failed, total.Attempted)
		return 1
	}
	return 0
}

// probeSection labels the layer probes when every workload runs.
const probeSection = "layers"

// What BENCHMARK.json says beside the names in spec.go.
const runSeconds = 15

var benchCommand = []string{"bash", "bench/run.sh"}

// printBenchmarkJSON renders spec.go in the BENCHMARK.json schema.
func printBenchmarkJSON(w io.Writer) int {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    benchCommand,
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, ws := range workloads {
		doc.Workloads = append(doc.Workloads, wl{ws.Name, ws.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return 1
	}
	return 0
}
