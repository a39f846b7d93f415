//go:build !race

package client

import (
	"runtime"
	"testing"
)

// TestResultStreamAllocs: draining a 32-row results body through
// ResultStream allocates less than 64 KiB in all, reader buffer
// included. The race detector inflates allocations, so this pin builds
// only without it.
func TestResultStreamAllocs(t *testing.T) {
	body := resultStreamBody(t)
	const drains = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range drains {
		if rows := drainResultStream(t, body); rows != 32 {
			t.Fatalf("drained %d rows, want 32", rows)
		}
	}
	runtime.ReadMemStats(&after)
	if perDrain := (after.TotalAlloc - before.TotalAlloc) / drains; perDrain >= 64<<10 {
		t.Errorf("draining %d bytes of rows allocates %d bytes, want less than %d", len(body), perDrain, 64<<10)
	}
}
