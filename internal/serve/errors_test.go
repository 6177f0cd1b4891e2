package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mnpusim/internal/serve/api"
	"mnpusim/internal/sim"
)

// TestErrorEnvelopeConformance drives every /v1 endpoint into its
// documented failure modes and verifies each answers the structured
// envelope {"error":{"code","message","retryable"}} with the right
// status, code, and retryability.
func TestErrorEnvelopeConformance(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s := newStubServer(t, Config{Workers: 1, QueueDepth: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return fakeResult(1), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the worker and fill the queue so submits start bouncing.
	j1, err := s.submit(ncfSpec())
	if err != nil {
		t.Fatalf("occupy worker: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); j1.View(false).Status != StatusRunning; {
		if time.Now().After(deadline) {
			t.Fatalf("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	spec2 := ncfSpec()
	spec2.Workloads = []string{"gpt2", "ncf"}
	if _, err := s.submit(spec2); err != nil {
		t.Fatalf("fill queue: %v", err)
	}

	cases := []struct {
		name      string
		method    string
		path      string
		body      string
		status    int
		code      string
		retryable bool
	}{
		{"job bad body", "POST", "/v1/jobs", "{not json", 400, api.ErrInvalidRequest, false},
		{"job unknown field", "POST", "/v1/jobs", `{"bogus":1}`, 400, api.ErrInvalidRequest, false},
		{"job kernel field", "POST", "/v1/jobs", `{"workloads":["ncf","gpt2"],"kernel":"tick"}`, 400, api.ErrInvalidRequest, false},
		{"job bad workload", "POST", "/v1/jobs", `{"workloads":["nope","nope"]}`, 400, api.ErrInvalidRequest, false},
		{"job negative timeout", "POST", "/v1/jobs", `{"workloads":["ncf","gpt2"],"timeout_ms":-1}`, 400, api.ErrInvalidRequest, false},
		{"job queue full", "POST", "/v1/jobs", `{"workloads":["alex","alex"]}`, 503, api.ErrUnavailable, true},
		{"job missing", "GET", "/v1/jobs/j999", "", 404, api.ErrNotFound, false},
		{"job list bad status", "GET", "/v1/jobs?status=bogus", "", 400, api.ErrInvalidRequest, false},
		{"job list bad cursor", "GET", "/v1/jobs?cursor=j999", "", 400, api.ErrInvalidRequest, false},
		{"job list bad limit", "GET", "/v1/jobs?limit=x", "", 400, api.ErrInvalidRequest, false},
		{"result missing job", "GET", "/v1/jobs/j999/result", "", 404, api.ErrNotFound, false},
		{"result not ready", "GET", "/v1/jobs/j1/result", "", 409, api.ErrConflict, false},
		{"events missing job", "GET", "/v1/jobs/j999/events", "", 404, api.ErrNotFound, false},
		{"dump missing job", "GET", "/v1/jobs/j999/dump", "", 404, api.ErrNotFound, false},
		{"profile missing job", "GET", "/v1/jobs/j999/profile", "", 404, api.ErrNotFound, false},
		{"profile not captured", "GET", "/v1/jobs/j1/profile", "", 409, api.ErrConflict, false},
		{"cancel missing job", "DELETE", "/v1/jobs/j999", "", 404, api.ErrNotFound, false},
		{"sweep bad body", "POST", "/v1/sweeps", "{not json", 400, api.ErrInvalidRequest, false},
		{"sweep bad cores", "POST", "/v1/sweeps", `{"cores":16}`, 400, api.ErrInvalidRequest, false},
		{"sweep octa sampled", "POST", "/v1/sweeps", `{"cores":8,"sample":10}`, 400, api.ErrInvalidRequest, false},
		{"sweep bad workload", "POST", "/v1/sweeps", `{"workloads":["nope"]}`, 400, api.ErrInvalidRequest, false},
		{"sweep duplicate workload", "POST", "/v1/sweeps", `{"workloads":["ncf","ncf"]}`, 400, api.ErrInvalidRequest, false},
		{"sweep bad sharing", "POST", "/v1/sweeps", `{"sharing":["bogus"]}`, 400, api.ErrInvalidRequest, false},
		{"sweep bad scale", "POST", "/v1/sweeps", `{"scale":"huge"}`, 400, api.ErrInvalidRequest, false},
		{"sweep negative sample", "POST", "/v1/sweeps", `{"sample":-1}`, 400, api.ErrInvalidRequest, false},
		{"sweep negative timeout", "POST", "/v1/sweeps", `{"timeout_ms":-1}`, 400, api.ErrInvalidRequest, false},
		{"sweep list bad status", "GET", "/v1/sweeps?status=bogus", "", 400, api.ErrInvalidRequest, false},
		{"sweep list bad cursor", "GET", "/v1/sweeps?cursor=s999", "", 400, api.ErrInvalidRequest, false},
		{"sweep list bad limit", "GET", "/v1/sweeps?limit=x", "", 400, api.ErrInvalidRequest, false},
		{"sweep missing", "GET", "/v1/sweeps/s999", "", 404, api.ErrNotFound, false},
		{"sweep events missing", "GET", "/v1/sweeps/s999/events", "", 404, api.ErrNotFound, false},
		{"sweep cancel missing", "DELETE", "/v1/sweeps/s999", "", 404, api.ErrNotFound, false},
		{"unknown route", "GET", "/v1/nope", "", 404, api.ErrNotFound, false},
		{"unknown nested route", "GET", "/v1/nope/metrics", "", 404, api.ErrNotFound, false},
		{"unrouted method", "PUT", "/v1/jobs", "", 404, api.ErrNotFound, false},
		{"unrouted method on a job", "PATCH", "/v1/jobs/j1", "", 404, api.ErrNotFound, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			var env api.ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("decoding envelope: %v", err)
			}
			if env.Error.Code != tc.code {
				t.Errorf("code = %q, want %q", env.Error.Code, tc.code)
			}
			if env.Error.Message == "" {
				t.Error("empty error message")
			}
			if env.Error.Retryable != tc.retryable {
				t.Errorf("retryable = %v, want %v", env.Error.Retryable, tc.retryable)
			}
		})
	}
}
