// Package client is the typed Go client of the mnpuserved HTTP API.
// It speaks exactly the wire format defined in internal/serve/api —
// jobs, sweeps, traces, SSE event streams, and post-mortem dumps — and
// is the one consumer-side implementation: cmd/mnpuload (one job, the
// smoke scripts' building block), bench/'s serving workloads, and the
// end-to-end tests all go through it.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/serve/api"
)

// APIError is a non-2xx response decoded from the structured error
// envelope every /v1 endpoint returns.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is one of the api.Err* constants.
	Code string
	// Message is the server's human-readable detail.
	Message string
	// Retryable hints the identical request may succeed later.
	Retryable bool
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve api: %s (%d %s)", e.Message, e.Status, e.Code)
}

// IsNotFound reports whether err is an APIError with the not_found code.
func IsNotFound(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Code == api.ErrNotFound
}

// Client talks to one daemon. The zero value is not usable; construct
// with New.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the underlying client; New installs http.DefaultClient.
	HTTP *http.Client
}

// New returns a client for the daemon at base (scheme://host:port,
// with or without a trailing slash).
func New(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: http.DefaultClient}
}

// do performs one request and decodes a non-2xx body as an APIError.
// The caller owns the returned body reader.
//
// A span context carried by ctx (dtrace.With) is propagated as a W3C
// traceparent header — on POST and DELETE only, so that WaitJob /
// WaitSweep polling does not flood the server's bounded span store
// with one HTTP span per poll.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if method == http.MethodPost || method == http.MethodDelete {
		if sc, ok := dtrace.From(ctx); ok {
			req.Header.Set(dtrace.Header, sc.Traceparent())
		}
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	defer resp.Body.Close()
	ae := &APIError{Status: resp.StatusCode, Code: api.CodeForStatus(resp.StatusCode)}
	var env api.ErrorEnvelope
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if jerr := json.Unmarshal(raw, &env); jerr == nil && env.Error.Code != "" {
		ae.Code, ae.Message, ae.Retryable = env.Error.Code, env.Error.Message, env.Error.Retryable
	} else {
		ae.Message = strings.TrimSpace(string(raw))
		ae.Retryable = api.RetryableStatus(resp.StatusCode)
	}
	return nil, ae
}

// getJSON decodes a 2xx response body into out.
func (c *Client) getJSON(ctx context.Context, method, path string, body io.Reader, out any) error {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// postJSON marshals in and decodes the response into out.
func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.getJSON(ctx, http.MethodPost, path, bytes.NewReader(b), out)
}

// SubmitJob posts a job spec. A cache-served job comes back already
// terminal with Cached set.
func (c *Client) SubmitJob(ctx context.Context, spec api.JobSpec) (api.JobView, error) {
	var v api.JobView
	err := c.postJSON(ctx, "/v1/jobs", spec, &v)
	return v, err
}

// Job fetches a job's state; the result and attribution are inlined
// once it is done.
func (c *Client) Job(ctx context.Context, id string) (api.JobView, error) {
	var v api.JobView
	err := c.getJSON(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &v)
	return v, err
}

// ListJobs pages through jobs in submission order. status filters by
// lifecycle state when non-empty; cursor continues a previous page;
// limit bounds the page size (0 = server default).
func (c *Client) ListJobs(ctx context.Context, status api.Status, cursor string, limit int) (api.JobList, error) {
	q := url.Values{}
	if status != "" {
		q.Set("status", string(status))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var l api.JobList
	err := c.getJSON(ctx, http.MethodGet, path, nil, &l)
	return l, err
}

// JobResult fetches the canonical result bytes of a done job — exactly
// the bytes `mnpusim -json` prints for the same config.
func (c *Client) JobResult(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// CancelJob cancels a queued or running job.
func (c *Client) CancelJob(ctx context.Context, id string) (api.JobView, error) {
	var v api.JobView
	err := c.getJSON(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &v)
	return v, err
}

// WaitJob polls a job until it reaches a terminal state, at the given
// interval (0 = 50ms), and returns its final view.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (api.JobView, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			return api.JobView{}, err
		}
		if v.Status.Terminal() {
			return v, nil
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// JobDump fetches a job's flight-recorder window (binary MNPUFR1) and
// the capture reason from the X-Dump-Reason header.
func (c *Client) JobDump(ctx context.Context, id string) (data []byte, reason string, err error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/dump", nil)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.Header.Get("X-Dump-Reason"), err
}

// JobProfile fetches the CPU profile captured when a job's watchdog
// fired.
func (c *Client) JobProfile(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/profile", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// SubmitSweep posts a sweep spec; the returned view carries the sweep
// ID to poll or stream.
func (c *Client) SubmitSweep(ctx context.Context, spec api.SweepSpec) (api.SweepView, error) {
	var v api.SweepView
	err := c.postJSON(ctx, "/v1/sweeps", spec, &v)
	return v, err
}

// Sweep fetches a sweep's rollup; withJobs includes the per-unit
// detail.
func (c *Client) Sweep(ctx context.Context, id string, withJobs bool) (api.SweepView, error) {
	path := "/v1/sweeps/" + url.PathEscape(id)
	if withJobs {
		path += "?jobs=true"
	}
	var v api.SweepView
	err := c.getJSON(ctx, http.MethodGet, path, nil, &v)
	return v, err
}

// ListSweeps pages through sweeps in submission order; the parameters
// mirror ListJobs (status filter, resume-after cursor, page size with
// 0 = server default).
func (c *Client) ListSweeps(ctx context.Context, status api.Status, cursor string, limit int) (api.SweepList, error) {
	q := url.Values{}
	if status != "" {
		q.Set("status", string(status))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := "/v1/sweeps"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var l api.SweepList
	err := c.getJSON(ctx, http.MethodGet, path, nil, &l)
	return l, err
}

// CancelSweep cancels a sweep and every expanded job still in flight.
func (c *Client) CancelSweep(ctx context.Context, id string) (api.SweepView, error) {
	var v api.SweepView
	err := c.getJSON(ctx, http.MethodDelete, "/v1/sweeps/"+url.PathEscape(id), nil, &v)
	return v, err
}

// WaitSweep polls a sweep until terminal at the given interval
// (0 = 200ms).
func (c *Client) WaitSweep(ctx context.Context, id string, poll time.Duration) (api.SweepView, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		v, err := c.Sweep(ctx, id, false)
		if err != nil {
			return api.SweepView{}, err
		}
		if v.Status.Terminal() {
			return v, nil
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Workloads fetches the preset discovery payload.
func (c *Client) Workloads(ctx context.Context) (api.Workloads, error) {
	var v api.Workloads
	err := c.getJSON(ctx, http.MethodGet, "/v1/workloads", nil, &v)
	return v, err
}

// Healthz fetches liveness and queue occupancy. A draining daemon
// answers 503 with the same payload; that case is returned as stats,
// not an error.
func (c *Client) Healthz(ctx context.Context) (api.Stats, error) {
	var v api.Stats
	err := c.getJSON(ctx, http.MethodGet, "/v1/healthz", nil, &v)
	if ae, ok := err.(*APIError); ok && ae.Status == http.StatusServiceUnavailable {
		// A draining daemon answers 503 with the stats payload itself
		// (the documented healthz exception to the error envelope).
		var st api.Stats
		if jerr := json.Unmarshal([]byte(ae.Message), &st); jerr == nil && st.Status != "" {
			return st, nil
		}
		return api.Stats{Status: "draining"}, nil
	}
	return v, err
}

// Trace fetches a trace by ID. localOnly adds ?local=true, which the
// daemon accepts and ignores: every trace read is of its own span
// store.
func (c *Client) Trace(ctx context.Context, traceID string, localOnly bool) (api.TraceView, error) {
	path := "/v1/traces/" + url.PathEscape(traceID)
	if localOnly {
		path += "?local=true"
	}
	var v api.TraceView
	err := c.getJSON(ctx, http.MethodGet, path, nil, &v)
	return v, err
}

// Registry fetches the daemon's metric registry as a flat
// name -> value object (the GET /v1/registry payload).
func (c *Client) Registry(ctx context.Context) (map[string]int64, error) {
	var m map[string]int64
	err := c.getJSON(ctx, http.MethodGet, "/v1/registry", nil, &m)
	return m, err
}

// MetricValue scrapes /metrics (Prometheus text exposition) and
// returns the value of one sample line by its exposition name, e.g.
// "serve_simulations". Missing metrics return 0, false.
func (c *Client) MetricValue(ctx context.Context, name string) (int64, bool, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, perr := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 10, 64)
		if perr != nil {
			return 0, false, fmt.Errorf("client: bad sample %q: %w", line, perr)
		}
		return v, true, nil
	}
	return 0, false, sc.Err()
}

// Event is one server-sent event from a job or sweep stream.
type Event struct {
	// ID is the stream-monotonic event id.
	ID int64
	// Name is the event type: "progress", "snapshot", "attribution",
	// "result", "failed", or "cancelled".
	Name string
	// Data is the single-line JSON payload.
	Data []byte
}

// Events streams a job's SSE feed, invoking fn for each event until
// the stream closes (the server closes it after the terminal event),
// fn returns an error, or ctx is cancelled. Returning io.EOF from fn
// stops the stream without error.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) error) error {
	return c.stream(ctx, "/v1/jobs/"+url.PathEscape(id)+"/events", fn)
}

// SweepEvents streams a sweep's SSE feed; semantics match Events.
func (c *Client) SweepEvents(ctx context.Context, id string, fn func(Event) error) error {
	return c.stream(ctx, "/v1/sweeps/"+url.PathEscape(id)+"/events", fn)
}

func (c *Client) stream(ctx context.Context, path string, fn func(Event) error) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		return fmt.Errorf("client: event stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur Event
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.ID, _ = strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
		case strings.HasPrefix(line, "event: "):
			cur.Name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.Name != "" {
				if err := fn(cur); err != nil {
					if err == io.EOF {
						return nil
					}
					return err
				}
			}
			cur = Event{}
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}
