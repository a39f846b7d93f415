package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"rumor/internal/api"
)

// BenchmarkSubmit times POST /v1/jobs through Server.ServeHTTP: the
// SDK's 32-cell body and its Idempotency-Key, against a registry
// already at its retention of 256 jobs, so that every submit reads and
// decodes a body, hashes the cells, enqueues a job and evicts one.
// Bodies cycle through 512 distinct jobs, so no submit is a replay. The
// cells run on a stub remote that completes them at once.
func BenchmarkSubmit(b *testing.B) {
	instant := runnerFunc(func(_ context.Context, cells []CellSpec, fn func(*CellResult) error) ([]*CellResult, error) {
		for i, c := range cells {
			if err := fn(&CellResult{Index: i, Cell: c}); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	sched := NewScheduler(SchedulerConfig{Remote: instant, JobRetention: 256})
	defer sched.Shutdown(context.Background())
	srv := NewServer(sched)
	type post struct {
		body []byte
		key  string
	}
	posts := make([]post, 512)
	for i := range posts {
		cells := sdkJobCells()
		for k := range cells {
			cells[k].TrialSeed = mixSeed(uint64(i), uint64(k))
		}
		body, err := json.Marshal(JobSpec{CellList: cells})
		if err != nil {
			b.Fatal(err)
		}
		posts[i] = post{body, "sdk-cells-" + JobSpec{CellList: cells}.Hash()}
	}
	i := 0
	submit := func() {
		p := posts[i%len(posts)]
		i++
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(p.body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(api.IdempotencyKeyHeader, p.key)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusAccepted {
			b.Fatalf("submit %d: %d %s", i, w.Code, w.Body)
		}
	}
	for range len(posts) {
		submit()
	}
	if n := len(sched.JobsFiltered(JobsFilter{})); n < 256 {
		b.Fatalf("registry holds %d jobs, want the retention of 256", n)
	}
	b.ReportAllocs()
	for b.Loop() {
		submit()
	}
}
