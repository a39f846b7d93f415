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
		b.Fatal(err)
	}
	var body bytes.Buffer
	for _, res := range results {
		if err := api.EncodeRow(&body, res); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	for b.Loop() {
		s := newResultStream(io.NopCloser(bytes.NewReader(body.Bytes())))
		rows := 0
		for {
			if _, err := s.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			rows++
		}
		if rows != len(cells) {
			b.Fatalf("drained %d rows, want %d", rows, len(cells))
		}
	}
}
