// Package api defines the wire format of the mnpuserved HTTP API: the
// request and response bodies of every /v1 endpoint, the SSE event
// payloads, and the structured error envelope. It is the single
// consumer-side definition of the protocol — the server
// (internal/serve), the typed client (internal/serve/client), and every
// tool speaking to a daemon through that client (cmd/mnpuload's one-job
// submit, bench/'s serving workloads) all marshal exactly these types.
//
// The package depends only on the simulation configuration layer
// (internal/sim, internal/config, internal/workloads) and the
// distributed-tracing span type (internal/obs/dtrace), never on the
// server, so clients embedding it stay free of serving machinery.
package api

import (
	"encoding/json"
	"fmt"

	"mnpusim/internal/config"
	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/sim"
)

// Status is a job's (or sweep's) lifecycle state.
type Status string

const (
	// StatusQueued: accepted, waiting for a worker slot.
	StatusQueued Status = "queued"
	// StatusRunning: a worker is simulating it.
	StatusRunning Status = "running"
	// StatusDone: finished; the result is available.
	StatusDone Status = "done"
	// StatusFailed: the simulation returned an error (including a
	// per-job deadline expiry).
	StatusFailed Status = "failed"
	// StatusCancelled: cancelled by the client or by shutdown before a
	// result was produced.
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// JobSpec is the POST /v1/jobs request body. A job is either a named
// preset mix (Workloads + Scale + Sharing, the paper's §4.1.1 shape),
// an Ideal solo baseline (Ideal + one workload), or a full raw
// configuration (Config) — exactly one of the three styles.
type JobSpec struct {
	// Workloads names one built-in benchmark per core, e.g.
	// ["ncf","gpt2"] for a dual-core mix.
	Workloads []string `json:"workloads,omitempty"`
	// Scale is "tiny", "small", or "paper" (default "tiny").
	Scale string `json:"scale,omitempty"`
	// Sharing is "static", "+d", "+dw", or "+dwt" (default "+dwt").
	Sharing string `json:"sharing,omitempty"`
	// NoTranslation removes address translation (bandwidth isolation).
	NoTranslation bool `json:"no_translation,omitempty"`

	// Ideal requests the solo full-resource baseline run of a single
	// workload (the normalization denominator of every speedup in the
	// paper, §4.1.3). Exactly one workload must be named and Sharing
	// must be empty.
	Ideal bool `json:"ideal,omitempty"`

	// Config, when set, is the raw simulation configuration. Only the
	// data fields of sim.Config are meaningful over the wire; hook
	// fields cannot be expressed in JSON.
	Config *sim.Config `json:"config,omitempty"`

	// TimeoutMS bounds the simulation's run time in wall-clock
	// milliseconds; 0 uses the server default, and a negative value is
	// rejected with 400. The timeout starts when a worker picks the job
	// up, not while it queues.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BuildConfig resolves the spec into a runnable configuration.
func (s JobSpec) BuildConfig() (sim.Config, error) {
	if s.Config != nil {
		if len(s.Workloads) > 0 || s.Scale != "" || s.Sharing != "" || s.Ideal {
			return sim.Config{}, fmt.Errorf("serve: spec has both a raw config and preset fields; use one")
		}
		cfg := *s.Config
		if err := cfg.Validate(); err != nil {
			return sim.Config{}, err
		}
		return cfg, nil
	}
	if len(s.Workloads) == 0 {
		return sim.Config{}, fmt.Errorf("serve: spec needs workloads (one per core) or a raw config")
	}
	scaleName := s.Scale
	if scaleName == "" {
		scaleName = "tiny"
	}
	scale, err := config.ParseScale(scaleName)
	if err != nil {
		return sim.Config{}, err
	}
	if s.Ideal {
		if len(s.Workloads) != 1 {
			return sim.Config{}, fmt.Errorf("serve: an ideal baseline takes exactly one workload, got %d", len(s.Workloads))
		}
		if s.Sharing != "" {
			return sim.Config{}, fmt.Errorf("serve: an ideal baseline has no sharing level (got %q)", s.Sharing)
		}
		cfg, err := sim.NewIdealConfig(scale, s.Workloads[0])
		if err != nil {
			return sim.Config{}, err
		}
		cfg.NoTranslation = s.NoTranslation
		return cfg, nil
	}
	sharingName := s.Sharing
	if sharingName == "" {
		sharingName = "+dwt"
	}
	sharing, err := config.ParseSharing(sharingName)
	if err != nil {
		return sim.Config{}, err
	}
	cfg, err := sim.NewWorkloadConfig(scale, sharing, s.Workloads...)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.NoTranslation = s.NoTranslation
	return cfg, nil
}

// JobView is the JSON representation of a job's current state.
type JobView struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Status Status `json:"status"`
	// Cached reports the result was served from the content-addressed
	// cache without running a simulation.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Result is the simulation outcome, present once Status is "done".
	Result json.RawMessage `json:"result,omitempty"`
	// Attribution is the per-core stall-cycle breakdown (an
	// attrib.Report), present once Status is "done" for jobs whose
	// simulation produced one.
	Attribution json.RawMessage `json:"attribution,omitempty"`
}

// JobList is the GET /v1/jobs response: one page of jobs in submission
// order.
type JobList struct {
	Jobs []JobView `json:"jobs"`
	// NextCursor, when non-empty, is the cursor of the next page: pass
	// it back as ?cursor= to continue after the last job listed.
	NextCursor string `json:"next_cursor,omitempty"`
}

// JobProgress is the SSE "progress" event payload of a job stream.
type JobProgress struct {
	Status        Status `json:"status"`
	Cycle         int64  `json:"cycle"`
	Iterations    int64  `json:"iterations"`
	SkipWindows   int64  `json:"skip_windows"`
	SkippedCycles int64  `json:"skipped_cycles"`
}

// SweepSpec is the POST /v1/sweeps request body: an experiment grid
// over workload mixes and sharing levels, expanded server-side into
// fingerprinted jobs (one per mix x level, plus one Ideal baseline per
// distinct workload).
type SweepSpec struct {
	// Cores is the mix width: 2 (M(n,2) dual mixes) or 4 (quad), the
	// NPUs the paper evaluates; any other width is rejected with 400.
	// Default 2.
	Cores int `json:"cores,omitempty"`
	// Workloads restricts the mix population to these benchmarks, each
	// named once; empty means all eight of Table 1. An unknown or
	// repeated name is rejected with 400.
	Workloads []string `json:"workloads,omitempty"`
	// Scale is "tiny", "small", or "paper" (default "tiny").
	Scale string `json:"scale,omitempty"`
	// Sharing lists the levels to run ("static", "+d", "+dw", "+dwt");
	// empty means all four, in the paper's order.
	Sharing []string `json:"sharing,omitempty"`
	// Sample, when positive and smaller than the full population,
	// samples the mix enumeration. With Seed 0 it keeps every k-th mix,
	// k = population/Sample rounded down (the deterministic stride the
	// quad experiments use), so at least Sample mixes and possibly a few
	// more: 40 of the 330 quad mixes keeps 42. Otherwise it keeps a
	// Seed-keyed random subset of exactly Sample mixes, in enumeration
	// order.
	Sample int `json:"sample,omitempty"`
	// Seed keys the sampled-subset selection; 0 selects stride
	// sampling. The same (grid, sample, seed) always expands to the
	// same jobs.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS bounds each unit's job as JobSpec.TimeoutMS does; a
	// negative value is rejected with 400.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SweepJobView is one expanded sweep unit's state within a sweep view.
type SweepJobView struct {
	// Workloads is the mix (or the single workload of an Ideal
	// baseline unit).
	Workloads []string `json:"workloads"`
	// Sharing is the unit's sharing level; empty for Ideal baselines.
	Sharing string `json:"sharing,omitempty"`
	// Ideal marks the solo baseline units.
	Ideal bool `json:"ideal,omitempty"`
	// Key is the unit's config content address.
	Key string `json:"key"`
	// JobID is the handle of the job that ran the unit.
	JobID  string `json:"job_id,omitempty"`
	Status Status `json:"status"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// SweepView is the JSON representation of a sweep resource.
type SweepView struct {
	ID     string    `json:"id"`
	Status Status    `json:"status"`
	Error  string    `json:"error,omitempty"`
	Spec   SweepSpec `json:"spec"`
	// Mixes is the sampled mix-population size; Total counts expanded
	// jobs (mixes x levels + ideals).
	Mixes int `json:"mixes"`
	Total int `json:"total"`
	// Per-status rollup over the expanded jobs.
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// CacheHits counts units answered from the content-addressed
	// result cache without a new simulation.
	CacheHits int `json:"cache_hits"`
	// Jobs is the per-unit detail, included only when requested with
	// ?jobs=true (a full quad sweep has 1328 units).
	Jobs []SweepJobView `json:"jobs,omitempty"`
	// Result is the aggregated experiments.SharingResult (per-mix
	// MixScores, per-level geomean speedup and fairness), present once
	// Status is "done". Its bytes are identical to marshaling a
	// single-process experiments run of the same grid and seed.
	Result json.RawMessage `json:"result,omitempty"`
}

// SweepProgress is the SSE "progress" event payload of a sweep stream.
type SweepProgress struct {
	Status    Status `json:"status"`
	Total     int    `json:"total"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	Cancelled int    `json:"cancelled"`
	CacheHits int    `json:"cache_hits"`
}

// SweepList is the GET /v1/sweeps response: one page of sweeps in
// submission order (pagination parity with GET /v1/jobs).
type SweepList struct {
	Sweeps []SweepView `json:"sweeps"`
	// NextCursor, when non-empty, is the cursor of the next page: pass
	// it back as ?cursor= to continue after the last sweep listed.
	NextCursor string `json:"next_cursor,omitempty"`
}

// TraceView is the GET /v1/traces/{id} payload: every span the daemon
// recorded for one trace ID, sorted by start time.
type TraceView struct {
	TraceID string `json:"trace_id"`
	// Spans is the span list, sorted by start time then span ID so
	// equal inputs render identically.
	Spans []dtrace.Span `json:"spans"`
	// Dropped counts spans the daemon's bounded store discarded once
	// the trace hit its per-trace span cap.
	Dropped int `json:"dropped,omitempty"`
}

// Workloads is the GET /v1/workloads payload: everything a client
// needs to compose a preset JobSpec or SweepSpec.
type Workloads struct {
	Workloads []string `json:"workloads"`
	Scales    []string `json:"scales"`
	Sharing   []string `json:"sharing"`
}

// Stats is the GET /v1/healthz payload.
type Stats struct {
	Status  string `json:"status"`
	Workers int    `json:"workers"`
	Queued  int    `json:"queued"`
	Running int64  `json:"running"`
	Jobs    int    `json:"jobs"`
	Cached  int    `json:"cached_results"`
	// DiskCached counts result files indexed in the persistent cache
	// directory; 0 when the daemon runs cache-dir-less.
	DiskCached int `json:"disk_cached_results,omitempty"`
	// Sweeps counts sweep resources currently retained.
	Sweeps int `json:"sweeps,omitempty"`
}

// Error codes carried by the envelope. Every non-2xx /v1 response body
// is an ErrorEnvelope with one of these codes.
const (
	// ErrInvalidRequest (HTTP 400): malformed body, unknown field, or
	// a spec that fails validation.
	ErrInvalidRequest = "invalid_request"
	// ErrNotFound (HTTP 404): no job, sweep or trace with that ID, or
	// no /v1 route for the request's method and path.
	ErrNotFound = "not_found"
	// ErrConflict (HTTP 409): the resource exists but is not in a
	// state that has what was asked for (result of an unfinished job,
	// profile of a job whose watchdog never fired).
	ErrConflict = "conflict"
	// ErrUnavailable (HTTP 503): the queue is full or the daemon is
	// draining; retryable.
	ErrUnavailable = "unavailable"
	// ErrInternal (HTTP 500): unexpected server-side failure.
	ErrInternal = "internal"
)

// ErrorBody is the structured error of every non-2xx /v1 response.
type ErrorBody struct {
	// Code is one of the Err* constants.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
	// Retryable hints that the identical request may succeed later
	// (queue-full and draining rejections).
	Retryable bool `json:"retryable"`
	// RequestID echoes the X-Request-Id header of the failed request,
	// so an error report can be matched to the daemon's access log.
	RequestID string `json:"request_id,omitempty"`
}

// ErrorEnvelope wraps ErrorBody under the "error" key.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// CodeForStatus maps an HTTP status to its documented error code.
func CodeForStatus(status int) string {
	switch status {
	case 400:
		return ErrInvalidRequest
	case 404:
		return ErrNotFound
	case 409:
		return ErrConflict
	case 503:
		return ErrUnavailable
	default:
		return ErrInternal
	}
}

// RetryableStatus reports whether the status carries retryable=true.
func RetryableStatus(status int) bool { return status == 503 }
