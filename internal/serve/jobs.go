package serve

import (
	"encoding/json"
	"time"

	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/obs/recorder"
	"mnpusim/internal/serve/api"
	"mnpusim/internal/sim"
)

// The wire types live in internal/serve/api — the single consumer-side
// definition of the protocol. The server re-exports them so existing
// serve.JobSpec / serve.Status call sites keep reading naturally.
type (
	// Status is a job's lifecycle state.
	Status = api.Status
	// JobSpec is the POST /v1/jobs request body.
	JobSpec = api.JobSpec
	// JobView is the JSON representation of a job's current state.
	JobView = api.JobView
)

const (
	// StatusQueued: accepted, waiting for a worker slot.
	StatusQueued = api.StatusQueued
	// StatusRunning: a worker is simulating it.
	StatusRunning = api.StatusRunning
	// StatusDone: finished; the result is available.
	StatusDone = api.StatusDone
	// StatusFailed: the simulation returned an error (including a
	// per-job deadline expiry).
	StatusFailed = api.StatusFailed
	// StatusCancelled: cancelled by the client or by shutdown before a
	// result was produced.
	StatusCancelled = api.StatusCancelled
)

// Job is one queued, running, or finished simulation.
type Job struct {
	lifecycle

	// Key is the config's content address (sim.Config.Fingerprint):
	// jobs with equal keys produce byte-identical results.
	Key string

	cfg     sim.Config
	timeout time.Duration

	// progress accumulates the live counters streamed by the events
	// endpoint; the simulation goroutine writes it through the job's
	// teed probe sink.
	progress jobProgress

	// traceSC is the distributed-tracing parent of the job's spans
	// (cache lookup, queue wait, sim run) — the submitting request's
	// HTTP span or a sweep's per-unit span. Invalid (zero) for untraced
	// jobs; set once at submit, read by the worker.
	traceSC dtrace.SpanContext
	// enqueuedNS stamps when the job entered the queue
	// (hostprof.WallNow), for the queue-wait histogram and span. Zero
	// for cache-served jobs that never queued.
	enqueuedNS int64

	// Guarded by lifecycle.mu.
	cached bool
	attr   []byte // canonical JSON of the attrib.Report, nil if unavailable

	// recorder is the job's always-on flight recorder, attached by the
	// worker and teed behind the probe stream. dump holds the first
	// anomaly window captured from it (watchdog fire, cancellation,
	// timeout, error, or panic); profile holds the watchdog's CPU
	// profile. Guarded by lifecycle.mu.
	recorder   *recorder.Recorder
	dump       []byte
	dumpReason string
	profile    []byte
}

// View snapshots the job for JSON encoding. withResult controls whether
// the (potentially large) result payload is inlined.
func (j *Job) View(withResult bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{ID: j.ID, Key: j.Key, Status: j.status, Cached: j.cached, Error: j.errMsg}
	if withResult && j.status == StatusDone {
		v.Result = json.RawMessage(j.result)
		v.Attribution = json.RawMessage(j.attr)
	}
	return v
}

// AttributionJSON returns the canonical attribution bytes, or false
// while the job has not completed or produced none (stubbed or raw
// failed runs).
func (j *Job) AttributionJSON() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusDone || j.attr == nil {
		return nil, false
	}
	return j.attr, true
}

// markRunning moves a queued job to running; it reports false if the
// job already reached a terminal state (e.g. cancelled while queued).
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	return true
}

// setRecorder attaches the flight recorder when the worker picks the
// job up.
func (j *Job) setRecorder(r *recorder.Recorder) {
	j.mu.Lock()
	j.recorder = r
	j.mu.Unlock()
}

// captureDump stores the recorder's current window under reason. Only
// the first capture wins — a watchdog dump taken mid-run is not
// overwritten by the cancellation or timeout dump that follows it — and
// it reports whether this call did the capturing.
func (j *Job) captureDump(reason string) bool {
	j.mu.Lock()
	rec := j.recorder
	captured := j.dump != nil
	j.mu.Unlock()
	if rec == nil || captured {
		return false
	}
	// Serialize outside the job lock: DumpBytes takes the recorder's own
	// mutex against the still-emitting simulation goroutine.
	b := rec.DumpBytes(reason)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dump != nil {
		return false
	}
	j.dump, j.dumpReason = b, reason
	return true
}

// Dump returns the captured anomaly dump, if any.
func (j *Job) Dump() (data []byte, reason string, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dump, j.dumpReason, j.dump != nil
}

// LiveDump serializes the recorder's current window on demand; ok is
// false when no recorder was ever attached (queued or cache-served
// jobs).
func (j *Job) LiveDump(reason string) ([]byte, bool) {
	j.mu.Lock()
	rec := j.recorder
	j.mu.Unlock()
	if rec == nil {
		return nil, false
	}
	return rec.DumpBytes(reason), true
}

// setProfile stores the watchdog's CPU profile.
func (j *Job) setProfile(b []byte) {
	j.mu.Lock()
	j.profile = b
	j.mu.Unlock()
}

// Profile returns the watchdog's CPU profile, if one was captured.
func (j *Job) Profile() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.profile, j.profile != nil
}

// finish moves the job to a terminal state exactly once, keeping attr
// with the result.
func (j *Job) finish(st Status, result, attr []byte, errMsg string) {
	j.mu.Lock()
	if !j.status.Terminal() {
		j.attr = attr
	}
	j.mu.Unlock()
	j.lifecycle.finish(st, result, errMsg)
}
