package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rumor/client"
	"rumor/internal/api"
	"rumor/internal/obs"
	"rumor/internal/service"
)

func newTestServer(t *testing.T, workers int, withCaches bool) (*httptest.Server, *service.Scheduler) {
	t.Helper()
	cfg := service.SchedulerConfig{Workers: workers}
	if withCaches {
		cfg.Results = service.NewResultCache(0)
		cfg.Graphs = service.NewGraphCache(0)
	}
	sched := service.NewScheduler(cfg)
	t.Cleanup(func() { sched.Shutdown(context.Background()) })
	api := service.NewServer(sched)
	Mount(api, sched)
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	return ts, sched
}

func postExperiment(t *testing.T, ts *httptest.Server, id, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/experiments/"+id, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestRunExperimentBodyLimit: POST /v1/experiments/{id} reads at most
// api.MaxRequestBytes of its body; past that it answers 413
// request_too_large and submits no job.
func TestRunExperimentBodyLimit(t *testing.T) {
	ts, sched := newTestServer(t, 1, false)
	const req = `{"quick":true,"seed":1}`
	status, body := postExperiment(t, ts, "e12", strings.Repeat(" ", api.MaxRequestBytes-len(req)+1)+req)
	var env api.Envelope
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error == nil {
		t.Fatalf("oversized body: %d, not an envelope: %q", status, body)
	}
	if status != http.StatusRequestEntityTooLarge || env.Error.Code != api.CodeRequestTooLarge {
		t.Errorf("oversized body: %d %q %q", status, env.Error.Code, env.Error.Message)
	}
	if jobs := sched.JobsFiltered(service.JobsFilter{}); len(jobs) != 0 {
		t.Errorf("oversized body submitted %d jobs", len(jobs))
	}
	if status, body := postExperiment(t, ts, "e12", strings.Repeat(" ", api.MaxRequestBytes-len(req))+req); status != http.StatusOK || !strings.Contains(body, `"verdict"`) {
		t.Errorf("body of exactly the limit: %d %q", status, body)
	}
}

func TestExperimentListEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, 2, false)
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []ExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 15 {
		t.Fatalf("listed %d experiments, want 15", len(infos))
	}
	for _, info := range infos {
		if info.ID == "" || info.Title == "" || info.Claim == "" || info.CellsQuick == 0 || info.CellsFull == 0 {
			t.Errorf("incomplete listing row: %+v", info)
		}
	}
}

func TestExperimentRunEndpointErrors(t *testing.T) {
	ts, _ := newTestServer(t, 2, false)
	code, body := postExperiment(t, ts, "e99", `{"quick":true}`)
	if code != http.StatusNotFound {
		t.Errorf("unknown experiment: status %d, want 404", code)
	}
	var env api.Envelope
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error == nil || env.Error.Code != api.CodeExperimentNotFound {
		t.Errorf("unknown experiment body %q: want %s envelope", body, api.CodeExperimentNotFound)
	}
	code, body = postExperiment(t, ts, "e12", `{"quick": "yes"}`)
	if code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", code)
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error == nil || env.Error.Code != api.CodeBadRequest {
		t.Errorf("malformed body response %q: want %s envelope", body, api.CodeBadRequest)
	}
}

// TestAllExperimentsOverSDKMatchCLI: every experiment of All(), run
// server-side through the typed client SDK (Client.RunExperiment over
// POST /v1/experiments/{id}), streams its cell set and ends with an
// outcome equal to what the in-process path (cmd/experiments) computes
// for the same seed — the byte-identical determinism guarantee now
// pins the SDK path. The HTTP scheduler and the local comparison
// runner share one result cache, so the suite is computed once and
// replayed from cache for the comparison — which itself re-verifies
// that cache hits are exact.
func TestAllExperimentsOverSDKMatchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite over HTTP")
	}
	results := service.NewResultCache(0)
	graphs := service.NewGraphCache(0)
	sched := service.NewScheduler(service.SchedulerConfig{Workers: 4, Results: results, Graphs: graphs})
	defer sched.Shutdown(context.Background())
	srv := service.NewServer(sched)
	Mount(srv, sched)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	sdk, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	local := &service.Executor{Results: results, Graphs: graphs}

	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			cfg := Config{Quick: true, Seed: 1}
			cells := 0
			streamed, err := sdk.RunExperiment(context.Background(), strings.ToLower(e.ID),
				client.RunExperimentRequest{Quick: true, Seed: 1},
				func(res *service.CellResult) error {
					if res.Index != cells {
						t.Errorf("cell %d arrived with index %d", cells, res.Index)
					}
					cells++
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if want := len(e.Cells(cfg)); cells != want {
				t.Fatalf("streamed %d cells, want %d", cells, want)
			}
			cfg.Runner = local
			cli, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if streamed.Verdict != cli.Verdict.String() || streamed.Summary != cli.Summary || streamed.Details != cli.Details {
				t.Errorf("SDK outcome differs from CLI outcome:\n%+v\nvs\n%+v", streamed, cli)
			}
		})
	}
	if results.Stats().Hits == 0 {
		t.Error("CLI replay produced no cache hits")
	}
}

// TestExperimentStreamDeterministic: the NDJSON stream (cells + final
// outcome row) is byte-identical across worker counts and cache states,
// and its final row matches the outcome the in-process path computes.
func TestExperimentStreamDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiment cells repeatedly")
	}
	const body = `{"quick": true, "seed": 1}`
	cachedTS, sched := newTestServer(t, 1, true)
	code, cold := postExperiment(t, cachedTS, "e12", body)
	if code != http.StatusOK {
		t.Fatalf("cold run: status %d\n%s", code, cold)
	}
	_, warm := postExperiment(t, cachedTS, "e12", body)
	if warm != cold {
		t.Error("warm-cache stream differs from cold stream")
	}
	if sched.Metrics().CellsCached == 0 {
		t.Error("warm run hit no cached cells")
	}
	wideTS, _ := newTestServer(t, 4, false)
	_, wide := postExperiment(t, wideTS, "e12", body)
	if wide != cold {
		t.Error("stream differs across schedulers with different worker counts")
	}

	lines := strings.Split(strings.TrimSpace(cold), "\n")
	var streamed Outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &streamed); err != nil {
		t.Fatalf("final stream row is not an outcome: %v\n%s", err, lines[len(lines)-1])
	}
	e, err := ByID("e12")
	if err != nil {
		t.Fatal(err)
	}
	local, err := e.Run(Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Verdict != local.Verdict || streamed.Summary != local.Summary || streamed.Details != local.Details {
		t.Errorf("streamed outcome differs from local run:\n%+v\nvs\n%+v", streamed, local)
	}
	// Every preceding row must be a valid cell result.
	for i, line := range lines[:len(lines)-1] {
		var cell service.CellResult
		if err := json.Unmarshal([]byte(line), &cell); err != nil {
			t.Fatalf("row %d is not a cell result: %v", i, err)
		}
		if cell.Index != i || cell.Key == "" {
			t.Errorf("row %d: index %d key %q", i, cell.Index, cell.Key)
		}
	}
}

// scriptedRemote stands in for the peer coordinator behind
// SchedulerConfig.Remote: it computes and delivers the first deliver
// cells, announces that on delivered, then ends the batch with err — or,
// when err is nil, parks until the job's context ends. It is the one way
// to make a registry experiment's job fail or hang at a known cell.
type scriptedRemote struct {
	deliver   int
	err       error
	delivered chan struct{}
}

func (r *scriptedRemote) StreamCells(ctx context.Context, cells []service.CellSpec, fn func(*service.CellResult) error) ([]*service.CellResult, error) {
	var exec service.Executor
	for i := 0; i < r.deliver; i++ {
		res, _, err := exec.Run(ctx, i, cells[i])
		if err != nil {
			return nil, err
		}
		if fn != nil {
			if err := fn(res); err != nil {
				return nil, err
			}
		}
	}
	close(r.delivered)
	if r.err != nil {
		return nil, r.err
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestExperimentStreamErrorRow: a run stream whose job fails or is
// cancelled part-way keeps its 200, carries the cells completed so far
// as the byte-exact prefix of the healthy stream, and ends in exactly
// one error-envelope row with the job's terminal code.
func TestExperimentStreamErrorRow(t *testing.T) {
	const body = `{"quick": true, "seed": 1}`
	healthyTS, _ := newTestServer(t, 2, false)
	code, healthy := postExperiment(t, healthyTS, "e1", body)
	if code != http.StatusOK {
		t.Fatalf("healthy run: status %d\n%s", code, healthy)
	}
	prefix := strings.SplitAfter(healthy, "\n")[:2]

	boom := errors.New("all peers dead")
	for _, tc := range []struct {
		name    string
		err     error // nil: the test cancels the job instead
		code    string
		message string
	}{
		{"failed", boom, api.CodeJobFailed, "service: job terminated before cell completed: all peers dead"},
		{"cancelled", nil, api.CodeJobCancelled, "service: job terminated before cell completed: context canceled"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			remote := &scriptedRemote{deliver: len(prefix), err: tc.err, delivered: make(chan struct{})}
			sched := service.NewScheduler(service.SchedulerConfig{Remote: remote})
			t.Cleanup(func() { sched.Shutdown(context.Background()) })
			srv := service.NewServer(sched)
			Mount(srv, sched)
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)

			if tc.err == nil {
				go func() {
					<-remote.delivered
					for _, st := range sched.JobsFiltered(service.JobsFilter{}) {
						if job, err := sched.Job(st.ID); err == nil {
							job.Cancel()
						}
					}
				}()
			}
			code, stream := postExperiment(t, ts, "e1", body)
			if code != http.StatusOK {
				t.Fatalf("status %d, want 200 (the error arrives in-stream)\n%s", code, stream)
			}
			rows := strings.SplitAfter(strings.TrimSuffix(stream, "\n"), "\n")
			if len(rows) != len(prefix)+1 {
				t.Fatalf("stream has %d rows, want %d cells + 1 error row:\n%s", len(rows), len(prefix), stream)
			}
			for i, want := range prefix {
				if rows[i] != want {
					t.Errorf("row %d differs from the healthy stream:\n%s\nvs\n%s", i, rows[i], want)
				}
			}
			var env api.Envelope
			if err := json.Unmarshal([]byte(rows[len(prefix)]), &env); err != nil || env.Error == nil {
				t.Fatalf("last row %q is not an error envelope (%v)", rows[len(prefix)], err)
			}
			if env.Error.Code != tc.code || env.Error.Message != tc.message {
				t.Errorf("error row = %+v, want code %s, message %q", env.Error, tc.code, tc.message)
			}
			if n := strings.Count(stream, `"error"`); n != 1 {
				t.Errorf("stream carries %d error rows, want exactly 1", n)
			}
		})
	}
}

// TestExperimentRunKeepsRequestID: the job POST /v1/experiments/{id}
// submits runs under the request's X-Request-Id, so its "job submitted"
// line and every "cell computed" line carry it.
func TestExperimentRunKeepsRequestID(t *testing.T) {
	var logs strings.Builder
	log, err := obs.NewLogger(&logs, "text", "debug")
	if err != nil {
		t.Fatal(err)
	}
	o := service.NewObservability(obs.NewRegistry(), log)
	sched := service.NewScheduler(service.SchedulerConfig{Workers: 2, Obs: o})
	srv := service.NewServer(sched, service.WithObservability(o))
	Mount(srv, sched)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/experiments/e1", strings.NewReader(`{"quick":true,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.RequestIDHeader, "exp-28")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %v", resp.StatusCode, err)
	}
	// A worker logs the job's finish after the stream has its results.
	if err := sched.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	e, err := ByID("e1")
	if err != nil {
		t.Fatal(err)
	}
	submitted, computed := 0, 0
	for _, line := range strings.Split(logs.String(), "\n") {
		switch {
		case strings.Contains(line, `msg="job submitted"`):
			submitted++
		case strings.Contains(line, `msg="cell computed"`):
			computed++
		default:
			continue
		}
		if !strings.Contains(line, "request_id=exp-28") {
			t.Errorf("log line without the request ID: %s", line)
		}
	}
	if want := len(e.Cells(Config{Quick: true, Seed: 1})); submitted != 1 || computed != want {
		t.Errorf("%d job submitted and %d cell computed lines, want 1 and %d", submitted, computed, want)
	}
}
