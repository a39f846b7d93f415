package obs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteTextRoundTrip is the core exposition contract: whatever the
// registry writes, the package's own parser accepts, and the values
// survive the trip.
func TestWriteTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("rt_requests_total", "requests", "route", "code")
	c.With("GET /v1/jobs/{id}", "200").Add(3)
	c.With("unmatched", "404").Inc()
	g := r.NewGauge("rt_in_flight", "in flight")
	g.Set(2)
	h := r.NewHistogramVec("rt_duration_seconds", "durations", []float64{0.1, 1}, "route")
	h.With("GET /healthz").Observe(0.05)
	h.With("GET /healthz").Observe(5)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	sc, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("self-parse failed: %v\n%s", err, text)
	}
	if v, ok := sc.Value("rt_requests_total", map[string]string{"route": "GET /v1/jobs/{id}", "code": "200"}); !ok || v != 3 {
		t.Fatalf("requests{200} = %v, %v", v, ok)
	}
	if v, ok := sc.Value("rt_in_flight", nil); !ok || v != 2 {
		t.Fatalf("in_flight = %v, %v", v, ok)
	}
	if v, ok := sc.Value("rt_duration_seconds_count", map[string]string{"route": "GET /healthz"}); !ok || v != 2 {
		t.Fatalf("duration_count = %v, %v", v, ok)
	}
	if v, ok := sc.Value("rt_duration_seconds_bucket", map[string]string{"route": "GET /healthz", "le": "0.1"}); !ok || v != 1 {
		t.Fatalf("le=0.1 bucket = %v, %v", v, ok)
	}
	if v, ok := sc.Value("rt_duration_seconds_bucket", map[string]string{"route": "GET /healthz", "le": "+Inf"}); !ok || v != 2 {
		t.Fatalf("+Inf bucket = %v, %v", v, ok)
	}
}

// TestWriteTextShape pins the line-level format: HELP before TYPE,
// families sorted, series sorted by label values, cumulative buckets.
func TestWriteTextShape(t *testing.T) {
	r := NewRegistry()
	r.NewGauge("b_gauge", "second family").Set(1)
	v := r.NewCounterVec("a_total", "first family", "k")
	v.With("y").Inc()
	v.With("x").Add(2)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP a_total first family",
		"# TYPE a_total counter",
		`a_total{k="x"} 2`,
		`a_total{k="y"} 1`,
		"# HELP b_gauge second family",
		"# TYPE b_gauge gauge",
		"b_gauge 1",
		"",
	}, "\n")
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestWriteTextSkipsEmptyVecs(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("untouched_total", "never incremented", "k")
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("empty vec produced output:\n%s", sb.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("esc_total", `help with \ backslash`, "k")
	v.With("a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, sb.String())
	}
	if v, ok := sc.Value("esc_total", map[string]string{"k": "a\"b\\c\nd"}); !ok || v != 1 {
		t.Fatalf("escaped label did not round-trip: %v %v\n%s", v, ok, sb.String())
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"no_type_line 1\n",
		"# TYPE x counter\nx{unclosed=\"v 1\n",
		"# TYPE x counter\nx notanumber\n",
		"# TYPE x frobnicator\n",
		"# TYPE 0bad counter\n0bad 1\n",
	}
	for _, in := range bad {
		if _, err := ParseText(strings.NewReader(in)); err == nil {
			t.Fatalf("ParseText accepted malformed input %q", in)
		}
	}
}

func TestScrapeSum(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("sum_total", "t", "k")
	v.With("a").Add(2)
	v.With("b").Add(3)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	total, n := sc.Sum("sum_total")
	if total != 5 || n != 2 {
		t.Fatalf("Sum = %v over %d series, want 5 over 2", total, n)
	}
}

// TestWriteSnapshot covers the CLIs' one -metrics-out writer: a file
// target holds a parseable exposition, "-" goes to stderr, and an
// unwritable path or a failing source is an error (so the command
// exits non-zero) that leaves no partial file behind.
func TestWriteSnapshot(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("snap_events_total", "events", "kind").With("a").Add(3)
	dir := t.TempDir()

	// Capture stderr for the "-" row.
	stderrFile, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	realStderr := os.Stderr
	os.Stderr = stderrFile
	t.Cleanup(func() { os.Stderr = realStderr })

	failing := func(io.Writer) error { return errors.New("scrape failed") }
	for _, tc := range []struct {
		name    string
		path    string
		src     func(io.Writer) error
		wantErr bool
		readAt  string // where the exposition must have landed
	}{
		{"file", filepath.Join(dir, "m.prom"), r.WriteText, false, filepath.Join(dir, "m.prom")},
		{"stderr", "-", r.WriteText, false, stderrFile.Name()},
		{"unwritable path", filepath.Join(dir, "no-such-dir", "m.prom"), r.WriteText, true, ""},
		{"failing source", filepath.Join(dir, "failed.prom"), failing, true, ""},
	} {
		err := WriteSnapshot(tc.path, tc.src)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		if tc.wantErr {
			if _, statErr := os.Stat(tc.path); statErr == nil {
				t.Errorf("%s: left a file behind at %s", tc.name, tc.path)
			}
			continue
		}
		data, err := os.ReadFile(tc.readAt)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := ParseText(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: not a Prometheus exposition: %v\n%s", tc.name, err, data)
		}
		if v, ok := sc.Value("snap_events_total", map[string]string{"kind": "a"}); !ok || v != 3 {
			t.Errorf("%s: snap_events_total{kind=a} = %v, %v, want 3", tc.name, v, ok)
		}
	}
}
