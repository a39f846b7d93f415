package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// lastLine returns the last non-empty line of out.
func lastLine(out string) string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	return lines[len(lines)-1]
}

func names(specs []metricSpec) map[string]bool {
	out := make(map[string]bool, len(specs))
	for _, m := range specs {
		out[m.Name] = true
	}
	return out
}

// TestSmokeEveryWorkload runs every workload, traced and untraced, and
// the probes at sizes that take seconds, with every check on, and holds
// what is emitted against spec.go both ways.
func TestSmokeEveryWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "smoke", "-seed", "1", "-trace", "both"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Sections  map[string]map[string]value
	}
	if err := json.Unmarshal([]byte(lastLine(stdout.String())), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	layerSeen := map[string]bool{}
	for _, ws := range workloads {
		section := res.Sections[ws.Name]
		for _, m := range endToEnd {
			v, ok := section[m.Name]
			if !ok || v.Unit != m.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", ws.Name, m.Name, v, ok)
			}
		}
		for name := range section {
			if !names(endToEnd)[name] {
				layerSeen[name] = true
			}
		}
	}
	for name := range res.Sections[probeSection] {
		layerSeen[name] = true
	}
	for _, m := range perLayer {
		if !layerSeen[m.Name] {
			t.Errorf("per-layer metric %s is declared but was not emitted", m.Name)
		}
		delete(layerSeen, m.Name)
	}
	for name := range layerSeen {
		t.Errorf("metric %s was emitted but is not declared", name)
	}
}

// TestSingleWorkloadResult holds the one-workload form of the last line
// to the benchmark contract: with -trace 0 exactly the end-to-end
// metrics, with -trace 1 exactly the per-layer ones.
func TestSingleWorkloadResult(t *testing.T) {
	for _, tc := range []struct {
		trace string
		want  []metricSpec
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "gossip_live_sync", "--seed", "2", "--seconds", "1", "--scale", "smoke", "--trace", tc.trace}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit code %d\n%s", tc.trace, code, stderr.String())
		}
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lastLine(stdout.String())), &res); err != nil {
			t.Fatal(err)
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Fatalf("trace %s: result keys %v", tc.trace, res)
		}
		var metrics map[string]value
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(tc.want) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(metrics), len(tc.want))
		}
		for _, m := range tc.want {
			if v, ok := metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v (present %v), want unit %s", tc.trace, m.Name, v, ok, m.Unit)
			}
		}
	}
}

// TestProbeJobsOnManyCores: the service probe runs probeJobs jobs, not
// a number that depends on the core count. With more clients than jobs
// an earlier form divided the one by the other, got a limit of zero
// jobs per client, and ran until its deadline.
func TestProbeJobsOnManyCores(t *testing.T) {
	sc := scales["smoke"]
	var notes bytes.Buffer
	e := &env{seed: 3, seconds: 5, sc: sc, nproc: 2*sc.probeJobs + 1, tmp: t.TempDir(), notes: &notes}
	p := &probes{e: e, out: map[string]float64{}}
	s, _, err := p.miniService(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ops) != sc.probeJobs || int(s.work) != sc.probeJobs*sc.jobCells {
		t.Errorf("%d clients ran %d jobs (%g cells), want %d jobs", e.nproc, len(s.ops), s.work, sc.probeJobs)
	}
	if p.failed != 0 {
		t.Errorf("%d of %d probe checks failed\n%s", p.failed, p.attempted, notes.String())
	}
}

// TestCalibratorReads: a section gets a positive, finite host reading
// even when it ends before the first tick, a longer one a reading per
// period, and finish returns only when the reader has stopped.
func TestCalibratorReads(t *testing.T) {
	p := newHostProbe()
	c := p.calibrate()
	if ns := c.finish(); !(ns > 0) || math.IsInf(ns, 0) || len(c.ns) != 1 {
		t.Errorf("empty section: reading %g from %d samples, want one positive sample", ns, len(c.ns))
	}
	c = p.calibrate()
	time.Sleep(3*calPeriod + calPeriod/2)
	if ns := c.finish(); !(ns > 0) || math.IsInf(ns, 0) || len(c.ns) < 2 {
		t.Errorf("section of 3.5 periods: reading %g from %d samples, want at least 2", ns, len(c.ns))
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit code %d, stdout %q", code, stdout.String())
	}
}

// TestSpecLint holds spec.go to the limits of the BENCHMARK.json schema.
func TestSpecLint(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, ws := range workloads {
		use(ws.Name)
		if ws.Why == "" || len(ws.Why) > 200 || strings.Contains(ws.Why, "\n") {
			t.Errorf("%s: why of %d characters", ws.Name, len(ws.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == mSetup && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		use(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

// TestBenchmarkJSON: the file at the repository root is spec.go rendered
// by -print-spec, so every name in one is in the other.
func TestBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var rendered bytes.Buffer
	if code := printBenchmarkJSON(&rendered); code != 0 {
		t.Fatal("print-spec failed")
	}
	if !bytes.Equal(onDisk, rendered.Bytes()) {
		t.Errorf("BENCHMARK.json differs from `go run ./bench -print-spec`:\n%s", rendered.String())
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(onDisk))
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns for the same values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{5, 1, 3, 2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestSelfTimes: a span's self time is its duration less its children's,
// and the shares of a local workload add to one.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	ns := func(d int64) int64 { return d * int64(time.Millisecond) }
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: spCell, Start: 0, End: ns(10)},
		{ID: 1, Parent: 0, Name: spGraph, Start: ns(1), End: ns(4)},
		{ID: 2, Parent: 0, Name: spTrials, Start: ns(4), End: ns(9)},
		{ID: 3, Parent: -1, Name: spReduce, Start: ns(10), End: ns(12)},
	}
	self, top := tr.selfTimes()
	if top != 12*time.Millisecond || self[spCell] != 2*time.Millisecond ||
		self[spGraph] != 3*time.Millisecond || self[spTrials] != 5*time.Millisecond {
		t.Fatalf("self = %v, top = %v", self, top)
	}
	shares := phaseShares(self, top, false)
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 || math.Abs(shares["phase.trials_share"]-5.0/12) > 1e-9 ||
		math.Abs(shares["phase.other_share"]-4.0/12) > 1e-9 {
		t.Fatalf("shares = %v (sum %g)", shares, sum)
	}
}
