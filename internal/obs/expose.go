package obs

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
)

// TextContentType is the Content-Type of the Prometheus text
// exposition format (version 0.0.4, the format every Prometheus
// server scrapes).
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText runs the collect hooks and writes the full registry in the
// Prometheus text exposition format: families sorted by name, each
// with its # HELP and # TYPE line, series sorted by label values,
// histograms expanded into cumulative le-buckets plus _sum and _count.
// A nil registry writes nothing.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hooks := append([]func(){}, r.collects...)
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		children := f.sortedChildren()
		if len(children) == 0 {
			continue // a vec no code path has touched yet
		}
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.help))
		bw.WriteByte('\n')
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.typ)
		bw.WriteByte('\n')
		for _, c := range children {
			switch m := c.metric.(type) {
			case *Counter:
				writeSample(bw, f.name, f.labels, c.labelValues, "", "", m.Value())
			case *Gauge:
				writeSample(bw, f.name, f.labels, c.labelValues, "", "", m.Value())
			case *Histogram:
				counts, sum, total := m.snapshot()
				var cum uint64
				for i, bound := range m.buckets {
					cum += counts[i]
					writeSample(bw, f.name+"_bucket", f.labels, c.labelValues,
						"le", formatFloat(bound), float64(cum))
				}
				writeSample(bw, f.name+"_bucket", f.labels, c.labelValues,
					"le", "+Inf", float64(total))
				writeSample(bw, f.name+"_sum", f.labels, c.labelValues, "", "", sum)
				writeSample(bw, f.name+"_count", f.labels, c.labelValues, "", "", float64(total))
			}
		}
	}
	return bw.Flush()
}

// writeSample renders one sample line: name{labels} value. extraKey
// (the histogram's "le") is appended after the family labels.
func writeSample(w *bufio.Writer, name string, labels, values []string, extraKey, extraVal string, v float64) {
	w.WriteString(name)
	if len(labels) > 0 || extraKey != "" {
		w.WriteByte('{')
		first := true
		for i, l := range labels {
			if !first {
				w.WriteByte(',')
			}
			first = false
			w.WriteString(l)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(values[i]))
			w.WriteByte('"')
		}
		if extraKey != "" {
			if !first {
				w.WriteByte(',')
			}
			w.WriteString(extraKey)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(extraVal))
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	w.WriteByte('\n')
}

// formatFloat renders a sample value the way Prometheus expects:
// shortest exact decimal, with infinities spelled +Inf/-Inf.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
func escapeLabel(s string) string { return labelEscaper.Replace(s) }

// Handler serves the registry as a Prometheus scrape target
// (GET /metrics).
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", TextContentType)
		_ = r.WriteText(w)
	})
}

// WriteSnapshot is the CLIs' -metrics-out: it renders one exposition
// from src (a registry's WriteText, or a scrape of a remote daemon)
// and writes it to path, "-" meaning stderr (stdout carries results).
// The snapshot is rendered before the file is touched, so a failing
// source leaves no truncated file behind.
func WriteSnapshot(path string, src func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := src(&buf); err != nil {
		return err
	}
	if path == "-" {
		_, err := os.Stderr.Write(buf.Bytes())
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
