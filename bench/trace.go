package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program has no hooks of its own yet). Spans of one
// request — a cell, a job, a trial — share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a top-level span
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent int, op int64) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a duration
// the program reports about itself, such as TrialResult.Wall), placed
// at the end of its parent.
func (t *tracer) add(name string, parent int, op int64, d time.Duration) {
	t.mu.Lock()
	end := t.spans[parent].End
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: end - int64(d), End: end})
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover. Children of one
// span never overlap here (a span's calls are sequential), so the
// covered part is the sum of the children's durations. top is the
// summed duration of the top-level spans, which the self times add to.
func (t *tracer) selfTimes() (self map[string]time.Duration, top time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self = make(map[string]time.Duration)
	for _, s := range t.spans {
		d := s.End - s.Start
		if s.Parent < 0 {
			top += time.Duration(d)
		}
		if own := d - children[s.ID]; own > 0 {
			self[s.Name] += time.Duration(own)
		}
	}
	return self, top
}

// writeJSON dumps every span to path.
func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Span names of the per-cell decomposition, one per call of the
// executor's sequence, plus the client-side and trial-side ones.
const (
	spCell      = "cell"
	spValidate  = "validate"
	spKey       = "key"
	spCacheGet  = "cache_get"
	spGraph     = "graph_build"
	spTrials    = "trials"
	spSummarize = "summarize"
	spCachePut  = "cache_put"
	spEncode    = "encode"
	spDecode    = "decode"
	spReduce    = "reduce"
	spJob       = "job"
	spSubmit    = "submit"
	spFirstRow  = "first_row"
	spStream    = "stream"
	spPeer      = "peer_stream"
	spTrial     = "trial"
	spSpread    = "spread"
)

// phaseOf maps a span name onto the phase metric its self time counts
// towards; everything unnamed here is "other".
var phaseOf = map[string]string{
	spCacheGet:  "phase.cache_get_share",
	spGraph:     "phase.graph_build_share",
	spTrials:    "phase.trials_share",
	spSummarize: "phase.summarize_share",
	spCachePut:  "phase.cache_put_share",
	spEncode:    "phase.encode_share",
	spSpread:    "phase.transport_share",
}

var phaseNames = []string{
	"phase.cache_get_share", "phase.graph_build_share", "phase.trials_share",
	"phase.summarize_share", "phase.cache_put_share", "phase.encode_share",
	"phase.transport_share", "phase.other_share",
}

// phaseShares turns self times into shares of denom. What the named
// phases leave of denom is split between transport (when the workload
// has a caller on the far side of a socket, its time not spent in the
// executor's calls) and other.
func phaseShares(self map[string]time.Duration, denom time.Duration, remote bool) map[string]float64 {
	out := make(map[string]float64, len(phaseNames))
	for _, n := range phaseNames {
		out[n] = 0
	}
	if denom <= 0 {
		out["phase.other_share"] = 1
		return out
	}
	var named, other float64
	for name, d := range self {
		share := float64(d) / float64(denom)
		if m, ok := phaseOf[name]; ok {
			out[m] += share
			named += share
		} else {
			other += share
		}
	}
	if remote {
		// The executor's own unnamed calls (validate, key, decode, glue)
		// stay "other"; the rest of the caller's time is the wire, the
		// scheduler and waiting behind the other client's cells.
		out["phase.other_share"] = other
		if rest := 1 - named - other; rest > 0 {
			out["phase.transport_share"] += rest
		}
	} else {
		out["phase.other_share"] = 1 - named
	}
	return out
}
