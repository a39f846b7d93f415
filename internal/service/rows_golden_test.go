package service_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rumor/internal/cachestore"
	"rumor/internal/service"
)

// rowsGoldenCells is every dispatch cell plus one cell shaped like the
// service benchmarks' small jobs (n=64, 2 trials, a 20-digit trial
// seed).
func rowsGoldenCells() []struct {
	name string
	cell service.CellSpec
} {
	cells := dispatchCells()
	return append(cells, struct {
		name string
		cell service.CellSpec
	}{"small job", service.CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull", Timing: "async",
		Trials: 2, GraphSeed: 1, TrialSeed: 16045690984503098381}})
}

// TestRowsGolden pins, per cell, the SHA-256 of the three encodings of
// its result: the value TieredResultCache.Put hands the disk tier (read
// back from a reopened store), the NDJSON row Server.StreamResults
// writes for it at a non-zero index, and its SSE cell payload. Any
// result codec must leave all three byte-identical.
func TestRowsGolden(t *testing.T) {
	cells := rowsGoldenCells()
	specs := make([]service.CellSpec, len(cells))
	for i, tc := range cells {
		specs[i] = tc.cell
	}

	stored := storedValues(t, specs)
	// A leading filler cell puts every pinned row at a non-zero index.
	filler := service.CellSpec{Family: "complete", N: 8, Protocol: "push", Timing: "sync", Trials: 1, GraphSeed: 1, TrialSeed: 1}
	rows, events := streamedRows(t, append([]service.CellSpec{filler}, specs...))
	if len(rows) != len(cells)+1 || len(events) != len(cells)+1 {
		t.Fatalf("streamed %d rows and %d cell events, want %d each", len(rows), len(events), len(cells)+1)
	}

	var b strings.Builder
	for i, tc := range cells {
		b.WriteString(tc.name)
		for _, enc := range []string{stored[i], rows[i+1], events[i+1]} {
			sum := sha256.Sum256([]byte(enc))
			b.WriteString("\t" + hex.EncodeToString(sum[:]))
		}
		b.WriteString("\n")
	}
	got := b.String()

	path := filepath.Join("testdata", "rows.golden")
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			t.Errorf("result encoding drifted from %s at line %d:\ngot:  %s", path, i+1, gotLines[i])
			if i < len(wantLines) {
				t.Errorf("want: %s", wantLines[i])
			}
		}
	}
	if len(wantLines) > len(gotLines) {
		t.Errorf("golden file has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
}

// storedValues runs cells through an executor over a tiered cache on a
// temp-dir store and returns, per cell, the value a reopened store
// holds under its key.
func storedValues(t *testing.T, cells []service.CellSpec) []string {
	t.Helper()
	dir := t.TempDir()
	open := func() *cachestore.Store {
		store, err := cachestore.Open(cachestore.Options{Dir: dir, KeyVersion: service.CellKeyVersion,
			CompatVersions: service.CellKeyCompatVersions()})
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	tiered := service.NewTieredResultCache(service.NewResultCache(0), open())
	if _, err := (&service.Executor{Results: tiered, TrialWorkers: 1}).RunCells(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if err := tiered.Close(); err != nil {
		t.Fatal(err)
	}
	store := open()
	defer store.Close()
	values := make([]string, len(cells))
	for i, c := range cells {
		v, ok := store.Get(c.Key())
		if !ok {
			t.Fatalf("cell %d (%s): not in the reopened store", i, c.Key())
		}
		values[i] = string(v)
	}
	return values
}

// streamedRows runs cells as one job and returns its NDJSON rows, as
// Server.StreamResults writes them (without their newlines), and its
// SSE cell payloads, both indexed by cell.
func streamedRows(t *testing.T, cells []service.CellSpec) (rows, events []string) {
	t.Helper()
	sched := service.NewScheduler(service.SchedulerConfig{Workers: 2, TrialWorkers: 1})
	defer sched.Shutdown(context.Background())
	srv := service.NewServer(sched)
	job, err := sched.SubmitCells(cells, 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Terminal():
	case <-time.After(time.Minute):
		t.Fatal("job did not finish")
	}
	if st := job.Status(); st.State != service.JobDone {
		t.Fatalf("job %s: %v", st.State, job.Err())
	}

	rec := httptest.NewRecorder()
	srv.StreamResults(rec, httptest.NewRequest("GET", "/v1/jobs/"+job.ID()+"/results", nil), job, -1)
	rows = strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+job.ID()+"/events", nil))
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(nil, 1<<24)
	cell := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: cell":
			cell = true
		case strings.HasPrefix(line, "event: "):
			cell = false
		case cell && strings.HasPrefix(line, "data: "):
			events = append(events, strings.TrimPrefix(line, "data: "))
		}
	}
	return rows, events
}
