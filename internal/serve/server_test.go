package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mnpusim/internal/obs"
	"mnpusim/internal/obs/attrib"
	"mnpusim/internal/serve/api"
	"mnpusim/internal/sim"
)

// fakeResult builds a distinguishable result for stubbed simulations.
func fakeResult(cycles int64) sim.Result {
	return sim.Result{GlobalCycles: cycles, Cores: []sim.CoreResult{{Net: "stub", Cycles: cycles}}}
}

// mustNew fails the test on a server construction error.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// newStubServer returns a server whose simulations are the given stub
// instead of real runs.
func newStubServer(t *testing.T, cfg Config, stub func(ctx context.Context, c sim.Config) (sim.Result, error)) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.simulate = stub
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// submit resolves and submits a spec the way POST /v1/jobs does,
// without HTTP: the job is registered and visible to GET immediately.
func (s *Server) submit(spec JobSpec) (*Job, error) {
	cfg, key, err := resolveSpec(spec)
	if err != nil {
		return nil, err
	}
	return s.submitPrepared(context.Background(), cfg, key, spec.TimeoutMS)
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (JobView, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitTerminal(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	job, ok := s.jobs.get(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s still %s after 30s", id, job.Status())
	}
	return job
}

func ncfSpec() JobSpec {
	return JobSpec{Workloads: []string{"ncf"}, Scale: "tiny", Sharing: "static"}
}

// TestSubmitRunCacheRoundTrip is the service's core contract: a job
// runs once, its result is the canonical sim JSON, and an identical
// resubmission is served from the content-addressed cache without a
// second simulation.
func TestSubmitRunCacheRoundTrip(t *testing.T) {
	var sims atomic.Int64
	s := newStubServer(t, Config{Workers: 2}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		sims.Add(1)
		return fakeResult(42), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, code := postJob(t, ts, ncfSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if v.Key == "" || v.ID == "" {
		t.Fatalf("job view missing id/key: %+v", v)
	}
	job := waitTerminal(t, s, v.ID)
	if st := job.Status(); st != StatusDone {
		t.Fatalf("job status %s", st)
	}

	want, err := json.Marshal(fakeResult(42))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !bytes.Equal(raw.Bytes(), want) {
		t.Errorf("result bytes differ:\n got %s\nwant %s", raw.Bytes(), want)
	}

	// Resubmit: served from cache, same key, no second simulation.
	v2, code2 := postJob(t, ts, ncfSpec())
	if code2 != http.StatusOK {
		t.Fatalf("cached submit status %d", code2)
	}
	if !v2.Cached || v2.Status != StatusDone {
		t.Fatalf("resubmission not cached: %+v", v2)
	}
	if v2.Key != v.Key {
		t.Errorf("key changed across identical submissions: %s vs %s", v2.Key, v.Key)
	}
	if v2.ID == v.ID {
		t.Error("cached job reused the original job ID")
	}
	if n := sims.Load(); n != 1 {
		t.Errorf("ran %d simulations, want 1", n)
	}
	if got := s.reg.Snapshot().Value("serve.cache_hits"); got != 1 {
		t.Errorf("serve.cache_hits = %d, want 1", got)
	}

	// The inlined result on GET matches the raw endpoint.
	gv := getJob(t, ts, v2.ID)
	if !bytes.Equal([]byte(gv.Result), want) {
		t.Errorf("inlined result differs from raw result endpoint")
	}
}

// TestCancelRunningJob verifies DELETE aborts an in-flight simulation
// through its context.
func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	s := newStubServer(t, Config{Workers: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		close(started)
		<-ctx.Done()
		return sim.Result{}, fmt.Errorf("stub: %w", ctx.Err())
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, ncfSpec())
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	job := waitTerminal(t, s, v.ID)
	if st := job.Status(); st != StatusCancelled {
		t.Fatalf("cancelled job status %s", st)
	}
	if _, result, _ := job.outcome(); result != nil {
		t.Error("cancelled job has a result")
	}
}

// TestCancelQueuedJob verifies a job cancelled before a worker picks it
// up never simulates.
func TestCancelQueuedJob(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	var sims atomic.Int64
	s := newStubServer(t, Config{Workers: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		if sims.Add(1) == 1 {
			close(started)
		}
		<-block
		return fakeResult(1), nil
	})
	defer close(block)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First job occupies the only worker; second stays queued.
	first, _ := postJob(t, ts, ncfSpec())
	<-started
	spec2 := ncfSpec()
	spec2.Workloads = []string{"gpt2"}
	second, _ := postJob(t, ts, spec2)

	queued, ok := s.jobs.get(second.ID)
	if !ok {
		t.Fatal("cancel: job not found")
	}
	s.cancelJob(queued)
	job := waitTerminal(t, s, second.ID)
	if st := job.Status(); st != StatusCancelled {
		t.Fatalf("queued-then-cancelled job status %s", st)
	}
	_ = first
	if n := sims.Load(); n != 1 {
		t.Errorf("cancelled queued job simulated anyway (%d sims)", n)
	}
}

// TestJobTimeoutFails verifies the per-job deadline classifies as a
// failure, not a cancellation.
func TestJobTimeoutFails(t *testing.T) {
	s := newStubServer(t, Config{Workers: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		<-ctx.Done()
		return sim.Result{}, fmt.Errorf("stub: %w", ctx.Err())
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := ncfSpec()
	spec.TimeoutMS = 20
	v, _ := postJob(t, ts, spec)
	job := waitTerminal(t, s, v.ID)
	if st := job.Status(); st != StatusFailed {
		t.Fatalf("timed-out job status %s", st)
	}
	if view := job.View(false); !strings.Contains(view.Error, "timeout") {
		t.Errorf("timeout error not surfaced: %q", view.Error)
	}
}

// TestQueueFullRejects verifies submits beyond the queue depth fail
// with 503 instead of blocking the HTTP handler.
func TestQueueFullRejects(t *testing.T) {
	block := make(chan struct{})
	s := newStubServer(t, Config{Workers: 1, QueueDepth: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		<-block
		return fakeResult(1), nil
	})
	defer close(block)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specs := []string{"ncf", "gpt2", "res", "alex"}
	var codes []int
	for _, w := range specs {
		_, code := postJob(t, ts, JobSpec{Workloads: []string{w}})
		codes = append(codes, code)
	}
	// First occupies the worker, second fills the queue; at least one
	// later submit must be rejected.
	rejected := 0
	for _, c := range codes {
		if c == http.StatusServiceUnavailable {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatalf("no submit rejected; codes %v", codes)
	}
}

// TestShutdownDrains verifies accepted jobs finish during shutdown and
// new submits are rejected.
func TestShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	s := mustNew(t, Config{Workers: 1})
	s.simulate = func(ctx context.Context, c sim.Config) (sim.Result, error) {
		<-release
		return fakeResult(7), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, ncfSpec())

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Draining state must reject new work but keep status visible.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, code := postJob(t, ts, JobSpec{Workloads: []string{"gpt2"}}); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining returned %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining returned %d", resp.StatusCode)
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	job := waitTerminal(t, s, v.ID)
	if st := job.Status(); st != StatusDone {
		t.Fatalf("drained job status %s", st)
	}
}

// TestShutdownDeadlineCancelsInFlight verifies an expired drain
// deadline aborts the running job rather than hanging.
func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	s.simulate = func(ctx context.Context, c sim.Config) (sim.Result, error) {
		<-ctx.Done()
		return sim.Result{}, fmt.Errorf("stub: %w", ctx.Err())
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, ncfSpec())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown error %v, want deadline exceeded", err)
	}
	job := waitTerminal(t, s, v.ID)
	if st := job.Status(); st != StatusCancelled {
		t.Fatalf("aborted job status %s", st)
	}
}

// TestBadSpecs verifies validation failures map to 400.
func TestBadSpecs(t *testing.T) {
	s := newStubServer(t, Config{}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		return fakeResult(1), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, spec := range []JobSpec{
		{},                            // neither preset nor config
		{Workloads: []string{"nope"}}, // unknown workload
		{Workloads: []string{"ncf"}, Scale: "mega"},
		{Workloads: []string{"ncf"}, Sharing: "++"},
		{Workloads: []string{"ncf"}, Config: &sim.Config{}}, // both styles
	} {
		if _, code := postJob(t, ts, spec); code != http.StatusBadRequest {
			t.Errorf("spec %+v accepted with code %d", spec, code)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{nonsense"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON accepted with code %d", resp.StatusCode)
	}
}

// TestWorkloadsAndMetricsEndpoints sanity-checks the discovery and
// metrics surfaces.
func TestWorkloadsAndMetricsEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	s := newStubServer(t, Config{Registry: reg}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		return fakeResult(3), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	var wv api.Workloads
	if err := json.NewDecoder(resp.Body).Decode(&wv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(wv.Workloads) != 8 || len(wv.Sharing) != 4 || len(wv.Scales) != 3 {
		t.Fatalf("workloads view: %+v", wv)
	}

	v, _ := postJob(t, ts, ncfSpec())
	waitTerminal(t, s, v.ID)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.PrometheusContentType {
		t.Errorf("metrics Content-Type = %q, want %q", got, obs.PrometheusContentType)
	}
	buf := new(bytes.Buffer)
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"serve_jobs_submitted 1", "serve_jobs_done 1", "serve_simulations 1"} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

// TestCacheLookupMetricsByTier checks /metrics carries the cache-lookup
// histogram split by tier: two distinct jobs are two misses and two
// simulations, and resubmitting one of them is a memory-tier hit.
func TestCacheLookupMetricsByTier(t *testing.T) {
	reg := obs.NewRegistry()
	s := newStubServer(t, Config{Workers: 1, Registry: reg}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		return fakeResult(3), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ideal := JobSpec{Workloads: []string{"ncf"}, Scale: "tiny", Ideal: true}
	for i, spec := range []JobSpec{ncfSpec(), ideal, ncfSpec()} {
		want := http.StatusAccepted
		if i == 2 {
			want = http.StatusOK // the repeat is a cache hit
		}
		v, code := postJob(t, ts, spec)
		if code != want {
			t.Fatalf("submit %+v = %d, want %d", spec, code, want)
		}
		waitTerminal(t, s, v.ID)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"serve_simulations 2",
		`serve_cache_lookup_ns_count{tier="miss"} 2`,
		`serve_cache_lookup_ns_count{tier="memory"} 1`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data []byte
}

// readSSE consumes a whole SSE stream (the events endpoint closes it
// after the terminal event).
func readSSE(t *testing.T, ts *httptest.Server, id string) []sseEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.name != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func findEvent(evs []sseEvent, name string) (sseEvent, bool) {
	for _, e := range evs {
		if e.name == name {
			return e, true
		}
	}
	return sseEvent{}, false
}

// emitFakeRun replays a minimal but complete probe stream for a
// one-core run: some compute, one skip window, one finished inference,
// and the first-inference phase marker that finalizes attribution.
func emitFakeRun(sink obs.Sink) {
	if sink == nil {
		return
	}
	sink.Emit(obs.Event{Cycle: 0, Kind: obs.KindTileStart, Core: 0})
	sink.Emit(obs.Event{Cycle: 50, Kind: obs.KindSkipWindow, Core: -1, A: 10})
	sink.Emit(obs.Event{Cycle: 99, Kind: obs.KindTileFinish, Core: 0})
	sink.Emit(obs.Event{Cycle: 99, Kind: obs.KindIterDone, Core: 0, A: 1})
	sink.Emit(obs.Event{Cycle: 99, Kind: obs.KindPhase, Core: 0, Str: obs.PhaseFirstInference})
}

// TestJobEventsStream checks the SSE contract: the stream carries
// progress counters fed by the job's probe sink, an attribution event
// once the run finalizes one, and a terminal "result" event whose data
// bytes are identical to the result endpoint's body.
func TestJobEventsStream(t *testing.T) {
	s := newStubServer(t, Config{Workers: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		emitFakeRun(c.Obs)
		return fakeResult(42), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, ncfSpec())
	waitTerminal(t, s, v.ID)
	evs := readSSE(t, ts, v.ID)

	prog, ok := findEvent(evs, "progress")
	if !ok {
		t.Fatalf("no progress event in %+v", evs)
	}
	var pv struct {
		Status        string `json:"status"`
		Iterations    int64  `json:"iterations"`
		SkipWindows   int64  `json:"skip_windows"`
		SkippedCycles int64  `json:"skipped_cycles"`
	}
	if err := json.Unmarshal(prog.data, &pv); err != nil {
		t.Fatal(err)
	}
	if pv.Iterations != 1 || pv.SkipWindows != 1 || pv.SkippedCycles != 10 {
		t.Errorf("progress counters: %+v", pv)
	}

	ae, ok := findEvent(evs, "attribution")
	if !ok {
		t.Fatalf("no attribution event in %+v", evs)
	}
	var rep attrib.Report
	if err := json.Unmarshal(ae.data, &rep); err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Errorf("streamed attribution invalid: %v", err)
	}

	re, ok := findEvent(evs, "result")
	if !ok || evs[len(evs)-1].name != "result" {
		t.Fatalf("terminal result event missing or not last: %+v", evs)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	want := new(bytes.Buffer)
	_, _ = want.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(re.data, want.Bytes()) {
		t.Errorf("SSE result bytes differ from result endpoint:\n sse %s\n got %s", re.data, want.Bytes())
	}

	// The job view inlines the same attribution the stream carried.
	gv := getJob(t, ts, v.ID)
	if !bytes.Equal([]byte(gv.Attribution), ae.data) {
		t.Errorf("inlined attribution differs from SSE event")
	}

	// A resubmission served from cache still carries the attribution.
	v2, _ := postJob(t, ts, ncfSpec())
	if !v2.Cached {
		t.Fatalf("resubmission not cached: %+v", v2)
	}
	if ab, ok := func() ([]byte, bool) { j, _ := s.jobs.get(v2.ID); return j.AttributionJSON() }(); !ok || !bytes.Equal(ab, ae.data) {
		t.Errorf("cached job lost attribution (ok=%v)", ok)
	}
}

// TestJobEventsFailedTerminal checks a failing job's stream ends with a
// "failed" event carrying the error, and no attribution or result.
func TestJobEventsFailedTerminal(t *testing.T) {
	s := newStubServer(t, Config{Workers: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		return sim.Result{}, errors.New("boom")
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, ncfSpec())
	waitTerminal(t, s, v.ID)
	evs := readSSE(t, ts, v.ID)
	fe, ok := findEvent(evs, "failed")
	if !ok || evs[len(evs)-1].name != "failed" {
		t.Fatalf("failed terminal missing or not last: %+v", evs)
	}
	if !bytes.Contains(fe.data, []byte("boom")) {
		t.Errorf("failed payload: %s", fe.data)
	}
	if _, ok := findEvent(evs, "result"); ok {
		t.Error("failed job streamed a result event")
	}
	if _, ok := findEvent(evs, "attribution"); ok {
		t.Error("failed job streamed an attribution event")
	}
	if _, code := func() (JobView, int) { return postJob(t, ts, ncfSpec()) }(); code != http.StatusAccepted {
		t.Errorf("failed result was cached (code %d)", code)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("events for unknown job returned %d", resp.StatusCode)
	}
}

// TestEndToEndRealSimulation runs one real tiny simulation through the
// HTTP surface and byte-compares the served result against a direct
// sim.Run of the same config — the same identity the serve-smoke CI
// target checks against the mnpusim CLI.
func TestEndToEndRealSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	s := mustNew(t, Config{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, code := postJob(t, ts, ncfSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	job := waitTerminal(t, s, v.ID)
	if st := job.Status(); st != StatusDone {
		t.Fatalf("job status %s: %s", st, job.View(false).Error)
	}
	_, got, _ := job.outcome()

	cfg, err := ncfSpec().BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("served result differs from direct sim.Run of the same config")
	}

	// The real run produced a finalized attribution whose per-core
	// totals equal the served result's cycles.
	ab, ok := job.AttributionJSON()
	if !ok {
		t.Fatal("real job has no attribution")
	}
	var rep attrib.Report
	if err := json.Unmarshal(ab, &rep); err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("served attribution invalid: %v", err)
	}
	if len(rep.Cores) != len(res.Cores) || rep.Cores[0].TotalCycles != res.Cores[0].Cycles {
		t.Errorf("attribution totals %+v do not match result cores", rep.Cores)
	}

	// The SSE terminal event byte-matches the result endpoint.
	evs := readSSE(t, ts, v.ID)
	re, ok := findEvent(evs, "result")
	if !ok || !bytes.Equal(re.data, got) {
		t.Errorf("SSE terminal event does not byte-match result (found=%v)", ok)
	}
}
