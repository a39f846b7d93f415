package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"rumor/internal/api"
)

// sdkJobCells is the job the SDK submits on the service workloads: 32
// unique n=64 cells sweeping family × protocol × timing, 2 trials each.
func sdkJobCells() []CellSpec {
	families := []string{"hypercube", "complete", "cycle", "star"}
	protocols := []string{"push", "pull", "push-pull"}
	timings := []string{TimingSync, TimingAsync}
	cells := make([]CellSpec, 32)
	for k := range cells {
		cells[k] = CellSpec{
			Family:    families[k%4],
			N:         64,
			Protocol:  protocols[(k/4)%3],
			Timing:    timings[(k/12)%2],
			Trials:    2,
			GraphSeed: 1,
			TrialSeed: mixSeed(0x5eed, uint64(k)),
		}
	}
	return cells
}

// TestSubmitBodyVerdicts pins what POST /v1/jobs answers to each kind
// of body: the status, the error's code and message, how many cells the
// two posts enqueued between them, and whether the second post, under
// the same Idempotency-Key, was an idempotent replay. The body reader
// may change how it parses; it must not move a row.
func TestSubmitBodyVerdicts(t *testing.T) {
	sdk, err := json.Marshal(JobSpec{CellList: sdkJobCells()})
	if err != nil {
		t.Fatal(err)
	}
	withPriority, _ := json.Marshal(JobSpec{CellList: sdkJobCells(), Priority: 3})
	indented, _ := json.MarshalIndent(JobSpec{CellList: sdkJobCells()}, "", "  ")
	body := string(sdk)
	firstTrials := `"trials":2,`
	if !strings.Contains(body, firstTrials) {
		t.Fatalf("SDK body has no %s: %s", firstTrials, body)
	}
	seed := fmt.Sprintf(`"trial_seed":%d`, sdkJobCells()[0].TrialSeed)
	const limit = api.MaxRequestBytes
	rows := []struct {
		name    string
		body    string
		status  int
		code    string
		message string
		cells   int
		replay  bool
	}{
		{name: "sdk", body: body, status: 202, cells: 32, replay: true},
		{name: "sdk priority", body: string(withPriority), status: 202, cells: 32, replay: true},
		{name: "grid",
			body:   `{"families":["complete","hypercube"],"sizes":[16],"protocols":["push"],"timings":["sync","async"],"trials":2,"seed":5}`,
			status: 202, cells: 4, replay: true},
		{name: "unknown top-level field", body: strings.Replace(body, `{"cells":`, `{"bogus":1,"cells":`, 1),
			status: 400, code: api.CodeBadRequest, message: `decoding job spec: json: unknown field "bogus"`},
		{name: "unknown cell field", body: strings.Replace(body, firstTrials, `"bogus":1,`+firstTrials, 1),
			status: 400, code: api.CodeBadRequest, message: `decoding job spec: json: unknown field "bogus"`},
		{name: "Cells key", body: strings.Replace(body, `"cells"`, `"Cells"`, 1), status: 202, cells: 32, replay: true},
		{name: "duplicate trial_seed", body: strings.Replace(body, seed, `"trial_seed":7,`+seed, 1),
			status: 202, cells: 32, replay: true},
		{name: "float n", body: strings.Replace(body, `"n":64`, `"n":64.0`, 1),
			status: 400, code: api.CodeBadRequest,
			message: "decoding job spec: json: cannot unmarshal number 64.0 into Go struct field CellSpec.cells.n of type int"},
		{name: "indented", body: string(indented), status: 202, cells: 32, replay: true},
		{name: "trailing bytes", body: body + `}garbage`, status: 202, cells: 32, replay: true},
		{name: "empty", body: "", status: 400, code: api.CodeBadRequest, message: "decoding job spec: EOF"},
		{name: "null", body: "null", status: 400, code: api.CodeInvalidSpec, message: "service: invalid job spec: no families"},
		{name: "one byte over the limit", body: strings.Repeat(" ", limit+1-len(body)) + body,
			status: 413, code: api.CodeRequestTooLarge, message: fmt.Sprintf("decoding job spec: body exceeds %d bytes", limit)},
		{name: "object, then bytes past the limit", body: body + strings.Repeat(" ", limit+100-len(body)),
			status: 202, cells: 32, replay: true},
	}
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			srv, sched := newTestServer(t, SchedulerConfig{Workers: 1})
			post := func() *http.Response {
				req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(row.body))
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set(api.IdempotencyKeyHeader, fmt.Sprintf("verdict-%d", i))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				return resp
			}
			resp := post()
			var code, message string
			if resp.StatusCode >= 400 {
				e := decodeEnvelope(t, resp)
				code, message = e.Code, e.Message
			} else {
				resp.Body.Close()
			}
			again := post()
			again.Body.Close()
			replay := again.StatusCode == http.StatusOK && again.Header.Get(api.IdempotencyReplayedHeader) == "true"
			cells := 0
			for _, st := range sched.JobsFiltered(JobsFilter{}) {
				cells += st.CellsTotal
			}
			if resp.StatusCode != row.status || code != row.code || message != row.message ||
				cells != row.cells || replay != row.replay {
				t.Errorf("got status %d, code %q, message %q, %d cells, replay %v;\nwant status %d, code %q, message %q, %d cells, replay %v",
					resp.StatusCode, code, message, cells, replay, row.status, row.code, row.message, row.cells, row.replay)
			}
		})
	}
}
