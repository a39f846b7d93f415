// Package client is the typed Go SDK for the rumord batch simulation
// service — the one way anything in this repository (the rumorsim CLI,
// cmd/experiments -server, tests, and future rumord peers) talks to a
// rumord server. It wraps the resource-oriented v1 API in typed calls
// that share the service package's own types, decodes the structured
// error envelope into api.Error values (match with api.IsCode), retries
// 429 backpressure with context-aware backoff, resumes dropped result
// streams from a cursor without recomputation, and consumes the
// server-sent job event stream.
//
// Quickstart:
//
//	c, err := client.New("http://localhost:8080")
//	...
//	results, err := c.RunCells(ctx, cells) // submit + resumable stream
//
// Client implements service.CellRunner (StreamCells: per-cell delivery
// in canonical order, fn's error returned as is), so anything that runs
// cell grids locally (experiments.Config.Runner, a shard coordinator's
// partitions) runs them on a server by swapping in a Client.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"rumor/internal/api"
	"rumor/internal/obs"
	"rumor/internal/service"
)

// Client talks to one rumord server. It is safe for concurrent use.
type Client struct {
	base    *url.URL
	hc      *http.Client
	retries int           // extra attempts for retryable requests
	backoff time.Duration // first retry delay; doubles per attempt
	maxWait time.Duration // backoff ceiling

	// randInt64n overrides the jitter source (uniform in [0, n));
	// nil selects math/rand/v2. Test hook.
	randInt64n func(n int64) int64
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient sets the underlying *http.Client (custom transports,
// fault injection in tests, timeouts). Streaming calls hold the
// response body open, so the client's Timeout should be zero (use
// per-call contexts for deadlines).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetries sets how many times a retryable request (backpressure,
// transport errors on resumable/idempotent calls) is reattempted after
// its first failure. Default 5; 0 disables retries.
func WithRetries(n int) Option {
	return func(c *Client) { c.retries = n }
}

// WithBackoff sets the first retry delay and its ceiling; the ceiling
// for an attempt doubles per consecutive failure and the actual sleep
// is full-jittered — uniform in [0, ceiling] — so retries from clients
// that failed together do not stay synchronized. Defaults: 100ms,
// capped at 2s.
func WithBackoff(initial, max time.Duration) Option {
	return func(c *Client) { c.backoff, c.maxWait = initial, max }
}

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs a scheme and host", baseURL)
	}
	c := &Client{
		base:    u,
		hc:      http.DefaultClient,
		retries: 5,
		backoff: 100 * time.Millisecond,
		maxWait: 2 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// BaseURL returns the server base URL the client was built with.
func (c *Client) BaseURL() string { return c.base.String() }

// url joins path (and optional query) onto the base URL.
func (c *Client) url(path string) string {
	return strings.TrimRight(c.base.String(), "/") + path
}

// sleep waits for d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoffCap returns the deterministic backoff ceiling for the
// attempt-th consecutive failure (attempt counts from 0). The delay
// doubles per attempt but stops doubling once it reaches the ceiling:
// a single unchecked `backoff << attempt` wraps past zero for large
// attempts and can land on a small positive value that slips under the
// ceiling clamp.
func (c *Client) backoffCap(attempt int) time.Duration {
	d := c.backoff
	for ; attempt > 0 && d > 0 && d < c.maxWait; attempt-- {
		d <<= 1
	}
	if d <= 0 || d > c.maxWait {
		d = c.maxWait
	}
	return d
}

// wait returns the actual backoff delay for the attempt-th consecutive
// failure: full jitter over backoffCap, i.e. uniform in
// [0, backoffCap(attempt)]. Without jitter every client that failed at
// the same moment retries at the same moment — a restarted server (or
// a coordinator whose peers all rebooted) then takes the whole herd's
// retries in synchronized waves. Full jitter decorrelates them while
// keeping the same worst-case delay schedule.
func (c *Client) wait(attempt int) time.Duration {
	d := c.backoffCap(attempt)
	if d <= 0 {
		return 0
	}
	return time.Duration(c.rand64n(int64(d) + 1))
}

// rand64n returns a uniform value in [0, n). The randInt64n hook lets
// tests pin the jitter bounds.
func (c *Client) rand64n(n int64) int64 {
	if c.randInt64n != nil {
		return c.randInt64n(n)
	}
	return rand.Int64N(n)
}

// retryAfter honours a 429's Retry-After — the delta-seconds form
// parsed strictly (a garbage-suffixed value like "5xyz" is not five
// seconds), then the HTTP-date form — falling back to the computed
// backoff when the header is absent or unparseable.
func (c *Client) retryAfter(resp *http.Response, attempt int) time.Duration {
	if raw := strings.TrimSpace(resp.Header.Get("Retry-After")); raw != "" {
		if secs, err := strconv.Atoi(raw); err == nil {
			if secs >= 0 {
				return time.Duration(secs) * time.Second
			}
		} else if at, err := http.ParseTime(raw); err == nil {
			if d := time.Until(at); d > 0 {
				return d
			}
			return 0
		}
	}
	return c.wait(attempt)
}

// do issues one API request, retrying 429 backpressure (any method —
// a rejected submit enqueued nothing) and transport errors (only for
// requests that are safe to reissue: GETs, and submits carrying an
// Idempotency-Key). The response has a 2xx status; everything else
// comes back as an *api.Error.
func (c *Client) do(ctx context.Context, method, path string, header http.Header, body []byte) (*http.Response, error) {
	idempotent := method == http.MethodGet || method == http.MethodDelete ||
		header.Get(api.IdempotencyKeyHeader) != ""
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.url(path), bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		for k, vs := range header {
			req.Header[k] = vs
		}
		if len(body) > 0 {
			req.Header.Set("Content-Type", "application/json")
		}
		if id := obs.RequestID(ctx); id != "" {
			// The server logs this request under the caller's ID, not one of
			// its own: a coordinator's calls to its peers read as one trace.
			req.Header.Set(api.RequestIDHeader, id)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if idempotent && attempt < c.retries && ctx.Err() == nil {
				if err := sleep(ctx, c.wait(attempt)); err == nil {
					continue
				}
			}
			return nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < c.retries {
			d := c.retryAfter(resp, attempt)
			drain(resp)
			if err := sleep(ctx, d); err != nil {
				return nil, err
			}
			continue
		}
		if resp.StatusCode >= 400 {
			defer drain(resp)
			return nil, decodeError(resp)
		}
		return resp, nil
	}
}

// doJSON issues the request and decodes the JSON response into out
// (which may be nil to discard).
func (c *Client) doJSON(ctx context.Context, method, path string, header http.Header, body []byte, out interface{}) error {
	resp, err := c.do(ctx, method, path, header, body)
	if err != nil {
		return err
	}
	defer drain(resp)
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// drain consumes and closes the body so the connection is reusable.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// decodeError turns a non-2xx response into an *api.Error, preserving
// the stable code from the envelope (api.IsCode matches it) and the
// HTTP status.
func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env api.Envelope
	if err := json.Unmarshal(data, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		env.Error.HTTPStatus = resp.StatusCode
		return env.Error
	}
	return &api.Error{
		Code:       api.CodeInternal,
		Message:    fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data)),
		HTTPStatus: resp.StatusCode,
	}
}

// Health checks the server's liveness endpoint and returns its build
// identity (uptime, Go version, VCS revision).
func (c *Client) Health(ctx context.Context) (api.Health, error) {
	var h api.Health
	err := c.doJSON(ctx, http.MethodGet, "/healthz", nil, nil, &h)
	return h, err
}

// CacheStats returns the cache-tier snapshot (GET /v1/cache).
func (c *Client) CacheStats(ctx context.Context) (service.CacheSnapshot, error) {
	var snap service.CacheSnapshot
	err := c.doJSON(ctx, http.MethodGet, "/v1/cache", nil, nil, &snap)
	return snap, err
}

// SubmitOption configures a job submission.
type SubmitOption func(*http.Header)

// WithIdempotencyKey makes the submit replayable: a resubmit with the
// same key and spec returns the original job instead of enqueueing a
// duplicate, and lets the SDK safely retry the POST on transport
// errors.
func WithIdempotencyKey(key string) SubmitOption {
	return func(h *http.Header) { h.Set(api.IdempotencyKeyHeader, key) }
}

// SubmitJob submits a job spec and returns its status snapshot (202 on
// a fresh enqueue, 200 on an idempotent replay — both decode the same
// way). Backpressure (queue_full) is retried with backoff; other
// rejections come back as *api.Error.
func (c *Client) SubmitJob(ctx context.Context, spec service.JobSpec, opts ...SubmitOption) (service.JobStatus, error) {
	header := make(http.Header)
	for _, o := range opts {
		o(&header)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return service.JobStatus{}, err
	}
	var st service.JobStatus
	err = c.doJSON(ctx, http.MethodPost, "/v1/jobs", header, body, &st)
	return st, err
}

// Job returns one job's status.
func (c *Client) Job(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, nil, &st)
	return st, err
}

// JobsQuery narrows and pages the jobs listing; the zero value lists
// everything.
type JobsQuery struct {
	// State keeps only jobs in this state ("queued", "running", "done",
	// "failed", "cancelled"); empty keeps all.
	State service.JobState
	// After is a job-ID pagination cursor: only jobs submitted after it
	// are returned. Page through a long listing by passing the last ID
	// of the previous page.
	After string
	// Limit bounds the page size (0 = unbounded).
	Limit int
}

// Jobs lists job statuses in submission order, optionally filtered and
// paginated.
func (c *Client) Jobs(ctx context.Context, q JobsQuery) ([]service.JobStatus, error) {
	v := url.Values{}
	if q.State != "" {
		v.Set("state", string(q.State))
	}
	if q.After != "" {
		v.Set("after", q.After)
	}
	if q.Limit > 0 {
		v.Set("limit", fmt.Sprint(q.Limit))
	}
	path := "/v1/jobs"
	if len(v) > 0 {
		path += "?" + v.Encode()
	}
	var jobs []service.JobStatus
	err := c.doJSON(ctx, http.MethodGet, path, nil, nil, &jobs)
	return jobs, err
}

// CancelJob cancels a job and returns its resulting status.
func (c *Client) CancelJob(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.doJSON(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, nil, &st)
	return st, err
}
