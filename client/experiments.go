package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"

	"rumor/internal/api"
	"rumor/internal/service"
)

// RunExperimentRequest configures a server-side experiment run (alias
// of the wire type in internal/api, so callers outside internal/ need
// only this package).
type RunExperimentRequest = api.RunExperimentRequest

// ExperimentInfo is one row of the experiment registry listing (alias
// of the wire type).
type ExperimentInfo = api.ExperimentInfo

// Experiments lists the server's experiment registry
// (GET /v1/experiments).
func (c *Client) Experiments(ctx context.Context) ([]api.ExperimentInfo, error) {
	var infos []api.ExperimentInfo
	err := c.doJSON(ctx, http.MethodGet, "/v1/experiments", nil, nil, &infos)
	return infos, err
}

// RunExperiment runs one experiment server-side
// (POST /v1/experiments/{id}), streaming its cell results to onCell
// (which may be nil to discard them) and returning the final outcome
// row the server's reducer computed. This single-shot stream is not
// cursor-resumable — the reduction happens server-side; for a
// resumable experiment run, submit the experiment's cells through
// StreamCells and reduce locally, as cmd/experiments -server does.
func (c *Client) RunExperiment(ctx context.Context, id string, req api.RunExperimentRequest, onCell func(*service.CellResult) error) (*api.ExperimentOutcome, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/experiments/"+url.PathEscape(id), nil, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		// Rows are discriminated by shape: an error envelope terminates
		// the stream, a verdict marks the final outcome row, everything
		// else is a cell result.
		var probe struct {
			Error   *api.Error `json:"error"`
			Verdict string     `json:"verdict"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("client: decoding experiment row: %w", err)
		}
		switch {
		case probe.Error != nil:
			return nil, probe.Error
		case probe.Verdict != "":
			var outcome api.ExperimentOutcome
			if err := json.Unmarshal(line, &outcome); err != nil {
				return nil, fmt.Errorf("client: decoding outcome row: %w", err)
			}
			return &outcome, nil
		default:
			var res service.CellResult
			if err := json.Unmarshal(line, &res); err != nil {
				return nil, fmt.Errorf("client: decoding cell row: %w", err)
			}
			if onCell != nil {
				if err := onCell(&res); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("client: experiment %s stream ended without an outcome row", id)
}
