package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"rumor/internal/api"
	"rumor/internal/service"
)

// ResultStream iterates one NDJSON results connection
// (GET /v1/jobs/{id}/results). It is a single connection: a transport
// drop surfaces as an error from Next. For transparent reconnection
// use Client.StreamResults, which wraps ResultStream in cursor-based
// resume.
type ResultStream struct {
	body io.ReadCloser
	sc   *bufio.Scanner
	raw  []byte
	done bool
}

func newResultStream(body io.ReadCloser) *ResultStream {
	sc := bufio.NewScanner(body)
	// bufio's own 4 KiB start holds a typical row; the buffer doubles
	// toward the 16 MiB cap only for a row that needs it.
	sc.Buffer(nil, 1<<24)
	return &ResultStream{body: body, sc: sc}
}

// terminalStreamError marks a decode-side stream failure: the row
// itself is unreadable (larger than the scanner cap, malformed JSON),
// so reconnecting replays the same bytes and deterministically
// re-fails. StreamResults returns it immediately instead of burning
// the retry budget on a doomed reconnect loop.
type terminalStreamError struct{ err error }

func (e terminalStreamError) Error() string { return e.err.Error() }
func (e terminalStreamError) Unwrap() error { return e.err }

// Next returns the next cell result. It returns io.EOF when the server
// completed the stream, an *api.Error when the stream ended with a
// terminal error row (job failed or cancelled), a terminalStreamError
// when the payload itself is undecodable (resuming cannot help), and
// other errors on transport failures (the caller may resume from the
// last index).
func (s *ResultStream) Next() (*service.CellResult, error) {
	if s.done {
		return nil, io.EOF
	}
	if !s.sc.Scan() {
		s.done = true
		if err := s.sc.Err(); err != nil {
			if errors.Is(err, bufio.ErrTooLong) {
				return nil, terminalStreamError{fmt.Errorf("client: result row exceeds the scanner cap: %w", err)}
			}
			return nil, err
		}
		return nil, io.EOF
	}
	s.raw = append(s.raw[:0], s.sc.Bytes()...)
	// A result row starts with its index, the first field of a
	// CellResult, and goes through the result codec. Any other row is
	// decoded once, which also discriminates it: a result row never
	// carries an "error" key, an error row nothing else we care about.
	var row struct {
		Error *api.Error `json:"error"`
		service.CellResult
	}
	var err error
	if bytes.HasPrefix(s.raw, []byte(`{"index":`)) {
		err = service.DecodeResult(s.raw, &row.CellResult)
	} else {
		err = json.Unmarshal(s.raw, &row)
	}
	if err != nil {
		s.done = true
		// bufio.Scanner flushes the buffered tail of an errored
		// connection as a final token, so an undecodable row can be a
		// transport truncation rather than server garbage. Probe the
		// scanner: a pending read error means the connection died
		// mid-row — surface that (retryable, the resume cursor discards
		// the partial tail); a clean end means the row itself is
		// malformed, which no reconnect can fix.
		if !s.sc.Scan() {
			if terr := s.sc.Err(); terr != nil && !errors.Is(terr, bufio.ErrTooLong) {
				return nil, terr
			}
		}
		return nil, terminalStreamError{fmt.Errorf("client: decoding result row: %w", err)}
	}
	if row.Error != nil {
		s.done = true
		return nil, row.Error
	}
	return &row.CellResult, nil
}

// Raw returns the raw NDJSON bytes of the last row Next returned
// (valid until the next call) — the unit of the API's byte-determinism
// guarantee.
func (s *ResultStream) Raw() []byte { return s.raw }

// Close releases the connection.
func (s *ResultStream) Close() error { return s.body.Close() }

// Results opens one results stream for the job, resuming after cell
// index after (-1 streams from the beginning). The server replays
// already-completed cells from the job's results — reconnecting never
// recomputes.
func (c *Client) Results(ctx context.Context, id string, after int) (*ResultStream, error) {
	path := "/v1/jobs/" + url.PathEscape(id) + "/results"
	if after >= 0 {
		path += fmt.Sprintf("?after=%d", after)
	}
	resp, err := c.do(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return nil, err
	}
	return newResultStream(resp.Body), nil
}

// callbackError marks an error returned by the caller's row callback,
// so StreamResults can tell it apart from stream failures and return
// it unwrapped instead of reconnecting.
type callbackError struct{ err error }

func (e callbackError) Error() string { return e.err.Error() }

// StreamResults streams the job's results from cell index after+1 to
// completion, invoking fn for every row in canonical order. Dropped
// connections are transparently reconnected with a cursor at the last
// delivered row, so rows are delivered exactly once and nothing is
// recomputed; reconnect attempts are bounded by the client's retry
// budget (consecutive failures with no progress). Terminal error rows
// (job failed/cancelled) return as *api.Error, and decode-side
// failures (a row over the scanner cap, malformed JSON) return
// immediately without reconnecting — replaying the same bytes cannot
// succeed.
func (c *Client) StreamResults(ctx context.Context, id string, after int, fn func(*service.CellResult) error) error {
	cursor := after
	failures := 0
	for {
		stream, err := c.Results(ctx, id, cursor)
		if err != nil {
			return err
		}
		err = func() error {
			defer stream.Close()
			for {
				res, err := stream.Next()
				if err != nil {
					return err
				}
				cursor = res.Index
				failures = 0
				if err := fn(res); err != nil {
					return callbackError{err}
				}
			}
		}()
		var cb callbackError
		var apiErr *api.Error
		var term terminalStreamError
		switch {
		case errors.Is(err, io.EOF):
			return nil
		case errors.As(err, &cb):
			return cb.err
		case errors.As(err, &apiErr):
			return apiErr
		case errors.As(err, &term):
			// Decode-side failure: the same row re-fails on every
			// reconnect, so surface it instead of retrying.
			return term.err
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			// Transport drop mid-stream: reconnect just past the last
			// delivered row.
			failures++
			if failures > c.retries {
				return fmt.Errorf("client: results stream for %s dropped %d times: %w", id, failures, err)
			}
			if err := sleep(ctx, c.wait(failures-1)); err != nil {
				return err
			}
		}
	}
}

// CellsIdempotencyKey is the Idempotency-Key StreamCells submits an
// explicit cell list under: a deterministic digest of the cells'
// canonical hashes, so any client (re)running the same cells binds to
// the same server-side job. Exported so tests and future peers can
// address that job without duplicating the derivation.
func CellsIdempotencyKey(cells []service.CellSpec) string {
	return "sdk-cells-" + service.JobSpec{CellList: cells}.Hash()
}

// RunCells is StreamCells with no callback.
func (c *Client) RunCells(ctx context.Context, cells []service.CellSpec) ([]*service.CellResult, error) {
	return c.StreamCells(ctx, cells, nil)
}

// StreamCells implements service.CellRunner against the server: it
// submits the cells as one job, keyed by CellsIdempotencyKey so a retry
// binds to the same server-side job, and streams the results back with
// cursor resume, handing each row to fn in canonical order. Results are
// byte-identical to an Executor's.
func (c *Client) StreamCells(ctx context.Context, cells []service.CellSpec, fn func(*service.CellResult) error) ([]*service.CellResult, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("client: %w: no cells", service.ErrBadSpec)
	}
	spec := service.JobSpec{CellList: cells}
	st, err := c.SubmitJob(ctx, spec, WithIdempotencyKey(CellsIdempotencyKey(cells)))
	if err != nil {
		return nil, fmt.Errorf("client: submitting %d cells: %w", len(cells), err)
	}
	results := make([]*service.CellResult, len(cells))
	var fnErr error
	err = c.StreamResults(ctx, st.ID, -1, func(res *service.CellResult) error {
		if res.Index < 0 || res.Index >= len(results) {
			return fmt.Errorf("client: result index %d out of range [0, %d)", res.Index, len(results))
		}
		results[res.Index] = res
		if fn != nil {
			fnErr = fn(res)
		}
		return fnErr
	})
	if fnErr != nil {
		return nil, fnErr
	}
	if err != nil {
		return nil, fmt.Errorf("client: streaming job %s: %w", st.ID, err)
	}
	for i, res := range results {
		if res == nil {
			return nil, fmt.Errorf("client: job %s stream ended without cell %d", st.ID, i)
		}
	}
	return results, nil
}

// Compile-time check: the SDK is a drop-in cell runner.
var _ service.CellRunner = (*Client)(nil)
