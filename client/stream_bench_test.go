package client

import (
	"bytes"
	"context"
	"io"
	"testing"

	"rumor/internal/api"
	"rumor/internal/service"
)

// BenchmarkResultStream drains one 32-row NDJSON results body through
// ResultStream: the SDK's per-stream and per-row decode cost, without
// the HTTP transport. B/op includes the stream's reader buffer.
func BenchmarkResultStream(b *testing.B) {
	body := resultStreamBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if rows := drainResultStream(b, body); rows != 32 {
			b.Fatalf("drained %d rows, want 32", rows)
		}
	}
}

// resultStreamBody is the NDJSON results body of 32 cells shaped like
// the service benchmarks' (64 nodes, 2 trials, four families, both
// timings).
func resultStreamBody(tb testing.TB) []byte {
	families := []string{"complete", "hypercube", "star", "cycle"}
	cells := make([]service.CellSpec, 32)
	for k := range cells {
		cells[k] = service.CellSpec{
			Family: families[k%4], N: 64, Protocol: "push-pull", Timing: []string{"sync", "async"}[k/16],
			Trials: 2, GraphSeed: 1, TrialSeed: uint64(k),
		}
	}
	results, err := (&service.Executor{TrialWorkers: 1}).RunCells(context.Background(), cells)
	if err != nil {
		tb.Fatal(err)
	}
	var body bytes.Buffer
	for _, res := range results {
		if err := api.EncodeRow(&body, res); err != nil {
			tb.Fatal(err)
		}
	}
	return body.Bytes()
}

// drainResultStream reads body through a ResultStream to its end and
// returns the number of rows.
func drainResultStream(tb testing.TB, body []byte) int {
	s := newResultStream(io.NopCloser(bytes.NewReader(body)))
	rows := 0
	for {
		if _, err := s.Next(); err == io.EOF {
			return rows
		} else if err != nil {
			tb.Fatal(err)
		}
		rows++
	}
}
