package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkStreamRows times Server.StreamResults over a done job of 256
// cells shaped like the service benchmarks' (64 nodes, 2 trials, four
// families, three protocols, both timings) into a writer that discards
// them: the per-row encode and the stream's own overhead, without the
// HTTP transport.
func BenchmarkStreamRows(b *testing.B) {
	families := []string{"hypercube", "complete", "cycle", "star"}
	protocols := []string{"push", "pull", "push-pull"}
	cells := make([]CellSpec, 256)
	for k := range cells {
		cells[k] = CellSpec{Family: families[k%4], N: 64, Protocol: protocols[(k/4)%3],
			Timing: []string{TimingSync, TimingAsync}[(k/12)%2], Trials: 2, GraphSeed: 1,
			TrialSeed: 0x9e3779b97f4a7c15 * uint64(k+1)}
	}
	sched := NewScheduler(SchedulerConfig{Workers: 2, TrialWorkers: 1})
	defer sched.Shutdown(context.Background())
	job, err := sched.SubmitCells(cells, 0)
	if err != nil {
		b.Fatal(err)
	}
	<-job.Terminal()
	if st := job.Status(); st.State != JobDone {
		b.Fatalf("job %s: %v", st.State, job.Err())
	}
	srv := NewServer(sched)
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID()+"/results", nil)
	w := &discardResponse{header: http.Header{}}
	b.ReportAllocs()
	for b.Loop() {
		if _, done := srv.StreamResults(w, req, job, -1); !done {
			b.Fatal("stream ended early")
		}
	}
	b.SetBytes(w.n / int64(b.N))
}

// discardResponse is an http.ResponseWriter that counts and drops what
// is written to it.
type discardResponse struct {
	header http.Header
	n      int64
}

func (w *discardResponse) Header() http.Header { return w.header }
func (w *discardResponse) WriteHeader(int)     {}
func (w *discardResponse) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
