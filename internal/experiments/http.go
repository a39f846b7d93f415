package experiments

import (
	"errors"
	"io"
	"net/http"

	"rumor/internal/api"
	"rumor/internal/service"
)

// ExperimentInfo is one row of the GET /v1/experiments listing (the
// wire type lives in internal/api so the client SDK shares it).
type ExperimentInfo = api.ExperimentInfo

// RunRequest is the POST /v1/experiments/{id} body (wire type in
// internal/api; an empty body selects the defaults: full mode, default
// seed, priority 0).
type RunRequest = api.RunExperimentRequest

// Mount attaches the experiment endpoints under the service API's
// versioned /v1/experiments resource:
//
//	GET  /v1/experiments       list the experiment registry with cell counts
//	POST /v1/experiments/{id}  run one experiment through the scheduler,
//	                           streaming its cell results as NDJSON in
//	                           canonical order and ending with the
//	                           outcome row {"id","title","verdict",...}
//
// The streamed bytes are a pure function of (experiment, quick, seed):
// identical across runs, worker counts, and cache states — and the
// outcome equals what cmd/experiments prints for the same seed, because
// both ride the same cells and reducer. This run stream is not
// cursor-resumable (the reduction happens server-side); resumable
// experiment runs go through the jobs API instead, as the SDK's
// StreamCells does — which is exactly how cmd/experiments -server runs the
// suite.
func Mount(srv *service.Server, sched *service.Scheduler) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", listHandler)
	mux.HandleFunc("POST /v1/experiments/{id}", runHandler(srv, sched))
	srv.Mount("experiments", mux)
}

func listHandler(w http.ResponseWriter, _ *http.Request) {
	var infos []ExperimentInfo
	for _, e := range All() {
		infos = append(infos, ExperimentInfo{
			ID:         e.ID,
			Title:      e.Title,
			Claim:      e.Claim,
			CellsQuick: len(e.Cells(Config{Quick: true})),
			CellsFull:  len(e.Cells(Config{})),
		})
	}
	api.WriteJSON(w, http.StatusOK, infos)
}

// runHandler submits the experiment's cells as one job and answers with
// the server's own result stream (the same rows, flushes, gauge and
// terminal error row as GET /v1/jobs/{id}/results) plus the outcome row.
func runHandler(srv *service.Server, sched *service.Scheduler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e, err := ByID(r.PathValue("id"))
		if err != nil {
			api.WriteError(w, http.StatusNotFound, api.CodeExperimentNotFound, err.Error())
			return
		}
		var req RunRequest
		if err := api.DecodeRequest(w, r, &req); err != nil && !errors.Is(err, io.EOF) {
			api.WriteDecodeError(w, "run request", err)
			return
		}
		cfg := Config{Quick: req.Quick, Seed: req.Seed}
		job, _, err := sched.SubmitIdempotent(r.Context(), "", service.JobSpec{CellList: e.Cells(cfg), Priority: req.Priority})
		if err != nil {
			service.WriteSchedulerError(w, err)
			return
		}
		results, ok := srv.StreamResults(w, r, job, -1)
		if !ok {
			job.Cancel() // unlike a results stream, this one owns its job: stop computing for nobody
			return
		}

		// The outcome's Details carry the tables cmd/experiments prints.
		// The handler's return flushes the row; a failed write means the
		// client went away.
		outcome, err := e.reduce(cfg, results)
		if err != nil {
			_ = api.EncodeRow(w, api.Envelope{Error: &api.Error{Code: api.CodeInternal, Message: err.Error()}})
			return
		}
		_ = api.EncodeRow(w, outcome)
	}
}
