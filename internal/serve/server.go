// Package serve is the simulation-as-a-service layer: an HTTP JSON API
// that queues simulation jobs onto a bounded worker pool, caches
// results by config content address, and exposes the process's metric
// registry. It is the serving front half of the system; the simulation
// core stays in internal/sim and is reached exclusively through
// sim.RunContext, so every job is cancellable and deadline-bounded.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a JobSpec; 202 with the job view
//	GET    /v1/jobs             list jobs (status filter + cursor pages)
//	GET    /v1/jobs/{id}        job status; result and stall-cycle
//	                            attribution inlined when done
//	GET    /v1/jobs/{id}/result raw canonical result JSON (bytes equal
//	                            to `mnpusim -json` for the same config)
//	GET    /v1/jobs/{id}/events SSE stream (with id: fields and a
//	                            retry: hint): progress and registry
//	                            snapshots while running, then an
//	                            attribution event and one terminal
//	                            event whose payload byte-matches the
//	                            result endpoint
//	GET    /v1/jobs/{id}/dump   flight-recorder window (binary MNPUFR1;
//	                            decode with mnputrace -mode postmortem)
//	GET    /v1/jobs/{id}/profile CPU profile captured on watchdog fire
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	POST   /v1/sweeps           submit a SweepSpec experiment grid
//	GET    /v1/sweeps           list sweeps
//	GET    /v1/sweeps/{id}      sweep rollup (+ per-unit detail with
//	                            ?jobs=true, aggregated result when done)
//	GET    /v1/sweeps/{id}/events SSE progress stream for a sweep
//	DELETE /v1/sweeps/{id}      cancel a sweep and its outstanding units
//	GET    /v1/traces/{id}      spans recorded for one trace
//	GET    /v1/registry         metric registry as one flat JSON object
//	GET    /v1/workloads        built-in workloads, scales, sharing levels
//	GET    /v1/healthz          liveness and queue occupancy
//	GET    /metrics             registry in the Prometheus text
//	                            exposition format
//
// Every non-2xx /v1 response body is the structured envelope
// {"error":{"code","message","retryable"}} (api.ErrorEnvelope),
// including the 404 for a /v1 route that does not exist.
//
// Every job and every sweep unit runs on the daemon that accepted it.
// Daemons pointed at one CacheDir still share completed results from
// disk.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"mnpusim/internal/obs"
	"mnpusim/internal/obs/attrib"
	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/obs/hostprof"
	"mnpusim/internal/obs/recorder"
	"mnpusim/internal/serve/api"
	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

// Config sizes the service.
type Config struct {
	// Workers is the simulation worker-pool size; it bounds concurrent
	// sim.RunContext calls. Zero means 1.
	Workers int
	// QueueDepth bounds jobs accepted but not yet running; submits
	// beyond it are rejected with 503. Zero means 64.
	QueueDepth int
	// DefaultJobTimeout bounds each job's simulation wall-clock time
	// when the spec does not set one. Zero means no default timeout.
	DefaultJobTimeout time.Duration
	// CacheEntries bounds the content-addressed result cache. Zero
	// means 1024.
	CacheEntries int
	// MaxJobs bounds how many job records are retained; once exceeded,
	// the oldest terminal jobs are forgotten. Zero means 4096.
	MaxJobs int
	// Registry receives the server's counters and every job's
	// simulation metrics. Nil creates a private registry.
	Registry *obs.Registry
	// EventInterval paces the progress events of the per-job SSE
	// stream. Zero means 250ms.
	EventInterval time.Duration
	// Logger receives the server's structured log, keyed by job ID.
	// Nil discards it.
	Logger *slog.Logger

	// CacheDir, when set, backs the result cache with a persistent
	// content-addressed store: one crash-safely written file per
	// fingerprint, warmed on startup, shareable between instances
	// pointed at the same directory. Empty keeps the cache in memory
	// only.
	CacheDir string
	// MaxSweeps bounds retained sweep resources; the oldest terminal
	// sweeps are forgotten beyond it. Zero means 256.
	MaxSweeps int

	// WatchdogFraction arms a per-job anomaly watchdog at this fraction
	// of the job's timeout (e.g. 0.5 fires halfway to the deadline): a
	// job still running then gets its flight-recorder window dumped and
	// a CPU profile captured, before the timeout kills it. Zero
	// disables the watchdog; jobs without a timeout are never watched.
	WatchdogFraction float64
	// WatchdogProfile is the CPU-profile capture duration on watchdog
	// fire. Zero means 250ms.
	WatchdogProfile time.Duration

	// DisableTracing turns the distributed-tracing layer off entirely:
	// no spans are recorded and GET /v1/traces answers 404 for every
	// ID. Results are byte-identical either way (tracing is observation
	// only); the switch exists for that proof and for memory-austere
	// deployments.
	DisableTracing bool
	// TraceMaxSpans bounds the spans kept per trace; zero means
	// dtrace.DefaultMaxSpans.
	TraceMaxSpans int

	// snapshotEvery emits one registry-snapshot SSE event per this many
	// progress ticks; New defaults it to 4.
	snapshotEvery int
}

// Server is the simulation service. Create with New, serve its
// Handler, and stop with Shutdown.
type Server struct {
	cfg Config
	reg *obs.Registry
	log *slog.Logger

	// simulate is the execution seam; tests substitute slow or failing
	// simulations without burning CPU.
	simulate func(ctx context.Context, cfg sim.Config) (sim.Result, error)

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *Job
	wg    sync.WaitGroup

	// mu orders submissions against Shutdown: every send on queue and
	// every new sweep happens under it, after a draining check.
	mu       sync.Mutex
	draining bool

	jobs    *store[*Job]
	sweeps  *store[*Sweep]
	sweepWG sync.WaitGroup

	cache *resultCache

	// tracer and spans are the distributed-tracing layer: the tracer
	// mints IDs and the bounded store retains finished spans for
	// GET /v1/traces/{id}. Both nil when Config.DisableTracing is set
	// (every dtrace entry point is nil-safe).
	tracer *dtrace.Tracer
	spans  *dtrace.Store

	jobsSubmitted, jobsDone, jobsFailed, jobsCancelled *obs.Counter
	cacheHits, diskCacheHits, simulations              *obs.Counter
	watchdogFires, sweepsSubmitted                     *obs.Counter
	queueDepth, running                                *obs.Gauge
	queueWait                                          *obs.Histogram
	cacheLookup                                        map[string]*obs.Histogram // by tier
}

// New builds the service and starts its worker pool. It fails when the
// cache directory cannot be prepared.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4096
	}
	if cfg.MaxSweeps <= 0 {
		cfg.MaxSweeps = 256
	}
	if cfg.EventInterval <= 0 {
		cfg.EventInterval = 250 * time.Millisecond
	}
	cfg.snapshotEvery = 4
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	cache, err := newResultCache(cfg.CacheEntries, cfg.CacheDir, logger)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		log:        logger,
		simulate:   sim.RunContext,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, cfg.QueueDepth),
		jobs:       newStore[*Job]("j", "job", cfg.MaxJobs),
		sweeps:     newStore[*Sweep]("s", "sweep", cfg.MaxSweeps),
		cache:      cache,

		jobsSubmitted:   reg.Counter("serve.jobs_submitted"),
		jobsDone:        reg.Counter("serve.jobs_done"),
		jobsFailed:      reg.Counter("serve.jobs_failed"),
		jobsCancelled:   reg.Counter("serve.jobs_cancelled"),
		cacheHits:       reg.Counter("serve.cache_hits"),
		diskCacheHits:   reg.Counter("serve.disk_cache_hits"),
		simulations:     reg.Counter("serve.simulations"),
		watchdogFires:   reg.Counter("serve.watchdog_fires"),
		sweepsSubmitted: reg.Counter("serve.sweeps_submitted"),
		queueDepth:      reg.Gauge("serve.queue_depth"),
		running:         reg.Gauge("serve.running"),
		queueWait:       reg.Histogram("serve.queue_wait_ns", serveLatencyBounds()),
		cacheLookup: map[string]*obs.Histogram{
			tierMemory: reg.Histogram("serve.cache_lookup_ns.tier.memory", serveLatencyBounds()),
			tierDisk:   reg.Histogram("serve.cache_lookup_ns.tier.disk", serveLatencyBounds()),
			tierMiss:   reg.Histogram("serve.cache_lookup_ns.tier.miss", serveLatencyBounds()),
		},
	}
	if !cfg.DisableTracing {
		s.spans = dtrace.NewStore(dtrace.DefaultMaxTraces, cfg.TraceMaxSpans)
		s.tracer = dtrace.NewTracer("mnpuserved", s.spans)
	}
	cache.onDiskHit = func() { s.diskCacheHits.Inc() }
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// serveLatencyBounds are the bucket upper bounds of the serving-layer
// host-latency histograms (queue wait, cache lookup), in nanoseconds:
// 1µs to 10s in powers of ten. A memory-tier lookup lands in the first
// buckets, a disk-tier read in the middle, and a queue wait behind a
// long simulation at the top.
func serveLatencyBounds() []int64 {
	return []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000}
}

// resolveSpec validates a spec, and builds and fingerprints its
// configuration.
func resolveSpec(spec JobSpec) (sim.Config, string, error) {
	if spec.TimeoutMS < 0 {
		return sim.Config{}, "", errf(http.StatusBadRequest, "timeout_ms must be >= 0, got %d", spec.TimeoutMS)
	}
	cfg, err := spec.BuildConfig()
	if err != nil {
		return sim.Config{}, "", errf(http.StatusBadRequest, "%v", err)
	}
	key, err := cfg.Fingerprint()
	if err != nil {
		return sim.Config{}, "", errf(http.StatusBadRequest, "%v", err)
	}
	return cfg, key, nil
}

// submitPrepared registers an already-resolved configuration as a job.
// A span context carried by ctx (the middleware's HTTP span, or a
// sweep's per-unit span) makes the job traced: its cache lookup, queue
// wait, and simulation run are recorded as child spans. ctx carries
// trace identity only — the job's lifetime is governed by s.baseCtx as
// before.
func (s *Server) submitPrepared(ctx context.Context, cfg sim.Config, key string, timeoutMS int64) (*Job, error) {
	job := &Job{
		Key:     key,
		cfg:     cfg,
		timeout: time.Duration(timeoutMS) * time.Millisecond,
	}
	job.start(s.baseCtx, StatusQueued)
	if job.timeout <= 0 {
		job.timeout = s.cfg.DefaultJobTimeout
	}
	if sc, ok := dtrace.From(ctx); ok {
		job.traceSC = sc
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		job.cancel()
		return nil, errf(http.StatusServiceUnavailable, "serve: draining, not accepting jobs")
	}
	lookupStart := hostprof.WallNow()
	cached, tier, hit := s.cache.getTier(key)
	s.cacheLookup[tier].Observe(hostprof.WallNow() - lookupStart)
	job.cached = hit // before the store publishes the job
	la := s.tracer.StartChild(job.traceSC, "cache_lookup")
	la.SetStart(lookupStart)
	la.SetAttr("tier", tier)
	// Every send on s.queue happens under s.mu, so room seen here is
	// still there at the send below. Only an admitted job gets an ID.
	admitted := hit || len(s.queue) < cap(s.queue)
	if admitted {
		s.jobs.add(job)
		la.SetAttr("job", job.ID)
	}
	la.End()
	if !admitted {
		s.mu.Unlock()
		job.cancel()
		return nil, errf(http.StatusServiceUnavailable, "serve: job queue full (%d deep)", s.cfg.QueueDepth)
	}
	if hit {
		s.mu.Unlock()
		s.jobsSubmitted.Inc()
		s.cacheHits.Inc()
		s.jobsDone.Inc()
		job.finish(StatusDone, cached.result, cached.attr, "")
		s.log.Info("job served from cache", "job", job.ID, "key", job.Key)
		return job, nil
	}
	job.enqueuedNS = hostprof.WallNow()
	s.queue <- job
	s.mu.Unlock()

	s.jobsSubmitted.Inc()
	s.queueDepth.Set(int64(len(s.queue)))
	s.log.Info("job queued", "job", job.ID, "key", job.Key, "queued", len(s.queue))
	return job, nil
}

// cancelJob cancels a queued or running job. Queued jobs transition to
// cancelled immediately; running jobs abort at the simulation's next
// cancellation poll (at most one skip window later). Cancelling a
// terminal job is a no-op.
func (s *Server) cancelJob(job *Job) {
	job.mu.Lock()
	wasQueued := job.status == StatusQueued
	job.mu.Unlock()
	if wasQueued {
		s.jobsCancelled.Inc()
		job.finish(StatusCancelled, nil, nil, "cancelled while queued")
	} else {
		job.cancel()
	}
	s.log.Info("job cancel requested", "job", job.ID, "was_queued", wasQueued)
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.queueDepth.Set(int64(len(s.queue)))
		s.runJob(job)
	}
}

// runJob executes one job under its context and timeout, classifying
// the outcome and feeding the result cache. Every run carries a
// stall-cycle attribution engine, the job's progress sink, and an
// always-on flight recorder on its probe stream; none perturbs the
// result bytes (the obs layer's determinism contract, proven in
// internal/sim). Anomalous exits — cancellation, timeout, simulation
// error, or an invariant-trip panic — capture the recorder's final
// window as the job's post-mortem dump. Outcome counters move before
// finish closes the done channel, so a job seen ending is counted.
func (s *Server) runJob(job *Job) {
	if !job.markRunning() {
		return // cancelled while queued
	}
	s.running.Add(1)
	defer s.running.Add(-1)

	// Queue wait is measured from the enqueue stamp to this dequeue;
	// the retrospective span uses the same two readings.
	dequeuedNS := hostprof.WallNow()
	s.queueWait.Observe(dequeuedNS - job.enqueuedNS)
	if qa := s.tracer.StartChild(job.traceSC, "queue_wait"); qa != nil {
		qa.SetStart(job.enqueuedNS)
		qa.SetAttr("job", job.ID)
		qa.End()
	}

	ctx := job.ctx
	if job.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.timeout)
		defer cancel()
	}
	cfg, attr, rec := observed(job.cfg, s.reg, &job.progress)
	job.setRecorder(rec)

	// The anomaly watchdog: a job that reaches this fraction of its
	// deadline still running is already an interesting run; capture its
	// window and host CPU profile while it is still alive.
	if s.cfg.WatchdogFraction > 0 && job.timeout > 0 {
		wd := time.AfterFunc(
			time.Duration(float64(job.timeout)*s.cfg.WatchdogFraction),
			func() { s.watchdogFire(job) })
		defer wd.Stop()
	}

	s.simulations.Inc()
	s.log.Info("job running", "job", job.ID, "cores", cfg.Cores())
	// The sim_run span carries the config fingerprint, linking this
	// trace to the cycle-domain Chrome trace and attribution buckets
	// recorded for the same configuration.
	sa := s.tracer.StartChild(job.traceSC, "sim_run")
	sa.SetAttr("job", job.ID)
	sa.SetAttr("fingerprint", job.Key)
	sa.SetAttr("cores", strconv.Itoa(cfg.Cores()))
	start := time.Now()
	res, err := s.runSimulation(ctx, job, cfg)
	elapsed := time.Since(start)
	if err == nil {
		sa.SetAttr("outcome", "ok")
	} else {
		sa.SetAttr("outcome", "error")
	}
	sa.End()
	switch {
	case err == nil:
		b, merr := json.Marshal(res)
		if merr != nil {
			s.jobsFailed.Inc()
			job.finish(StatusFailed, nil, nil, fmt.Sprintf("encoding result: %v", merr))
			return
		}
		// Attribution rides along only when the run produced a complete,
		// validated breakdown (stubbed simulations emit no events).
		var ab []byte
		if attr.Finalized() {
			if rep := attr.Report(); rep.Validate() == nil {
				ab, _ = json.Marshal(rep)
			}
		}
		s.cache.put(job.Key, b, ab)
		s.jobsDone.Inc()
		job.finish(StatusDone, b, ab, "")
		s.log.Info("job done", "job", job.ID, "elapsed", elapsed, "global_cycles", res.GlobalCycles)
	case errors.Is(err, context.Canceled):
		job.captureDump("cancelled")
		s.jobsCancelled.Inc()
		job.finish(StatusCancelled, nil, nil, err.Error())
		s.log.Info("job cancelled", "job", job.ID, "elapsed", elapsed)
	case errors.Is(err, context.DeadlineExceeded):
		job.captureDump("timeout")
		s.jobsFailed.Inc()
		job.finish(StatusFailed, nil, nil, fmt.Sprintf("job timeout (%s): %v", job.timeout, err))
		s.log.Warn("job timed out", "job", job.ID, "timeout", job.timeout)
	default:
		job.captureDump("error: " + err.Error())
		s.jobsFailed.Inc()
		job.finish(StatusFailed, nil, nil, err.Error())
		s.log.Warn("job failed", "job", job.ID, "err", err)
	}
}

// observed returns cfg carrying the probe stack every served run
// carries: a stall-cycle attribution engine, the job's progress sink
// and a flight recorder, teed into cfg.Obs in that order, and the
// registry fold (cfg.Metrics, reg unless the config names its own),
// which sim.Run tees behind them. It returns the engine and the
// recorder for the caller to read.
func observed(cfg sim.Config, reg *obs.Registry, progress *jobProgress) (sim.Config, *attrib.Engine, *recorder.Recorder) {
	if cfg.Metrics == nil {
		cfg.Metrics = reg
	}
	rec := recorder.New(cfg.Cores(), cfg.DRAM.Channels, recorder.DefaultRingCap)
	attr := sim.NewAttribution(cfg)
	cfg.Obs = obs.Tee(cfg.Obs, attr, progress, rec)
	return cfg, attr, rec
}

// runSimulation invokes the simulation seam with the job's ID as a
// pprof label (so watchdog CPU profiles attribute samples to jobs) and
// converts a panic — an invariant trip under -tags=invariants is one —
// into an error after capturing the flight-recorder window.
func (s *Server) runSimulation(ctx context.Context, job *Job, cfg sim.Config) (res sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			job.captureDump(fmt.Sprintf("panic: %v", p))
			err = fmt.Errorf("serve: simulation panic: %v", p)
			s.log.Error("simulation panicked", "job", job.ID, "panic", p)
		}
	}()
	pprof.Do(ctx, pprof.Labels("job", job.ID), func(ctx context.Context) {
		res, err = s.simulate(ctx, cfg)
	})
	return res, err
}

// cpuProfMu serializes watchdog CPU captures: StartCPUProfile is
// process-global and errors if a profile is already being taken.
var cpuProfMu sync.Mutex

// watchdogFire runs on the watchdog timer's goroutine when a job hits
// its deadline fraction still running.
func (s *Server) watchdogFire(job *Job) {
	if job.Status() != StatusRunning {
		return
	}
	if !job.captureDump("watchdog") {
		return
	}
	s.watchdogFires.Inc()
	s.log.Warn("watchdog fired", "job", job.ID,
		"fraction", s.cfg.WatchdogFraction, "timeout", job.timeout)

	dur := s.cfg.WatchdogProfile
	if dur <= 0 {
		dur = 250 * time.Millisecond
	}
	cpuProfMu.Lock()
	defer cpuProfMu.Unlock()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		// Another profiler owns the CPU (e.g. the operator attached one);
		// the dump alone still tells the post-mortem story.
		s.log.Warn("watchdog cpu profile unavailable", "job", job.ID, "err", err)
		return
	}
	time.Sleep(dur)
	pprof.StopCPUProfile()
	job.setProfile(buf.Bytes())
	s.log.Info("watchdog cpu profile captured", "job", job.ID, "bytes", buf.Len(), "dur", dur)
}

// Shutdown stops accepting jobs and drains the queue: already-accepted
// jobs keep running until done or until ctx expires, at which point
// every remaining job is cancelled and Shutdown returns ctx's error
// once the workers have exited. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
		s.log.Info("draining", "queued", len(s.queue))
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		// Sweep coordinators exit once their in-flight units resolve;
		// units they could not submit after the drain began resolve as
		// cancelled.
		s.sweepWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel() // abort in-flight simulations and sweeps
		<-done
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats is the healthz payload.
type Stats = api.Stats

// Stats snapshots queue occupancy.
func (s *Server) Stats() Stats {
	st := Stats{
		Status:     "ok",
		Workers:    s.cfg.Workers,
		Queued:     len(s.queue),
		Running:    s.running.Value(),
		Jobs:       s.jobs.len(),
		Cached:     s.cache.len(),
		DiskCached: s.cache.diskLen(),
		Sweeps:     s.sweeps.len(),
	}
	if s.Draining() {
		st.Status = "draining"
	}
	return st
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobsList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/dump", s.handleDump)
	mux.HandleFunc("GET /v1/jobs/{id}/profile", s.handleProfile)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The patterns above name a method, so each is more specific than
	// this one: it answers only a /v1 path or method no route serves,
	// which would otherwise get the mux's plain-text 404 or 405.
	mux.HandleFunc("/v1/", handleUnknownRoute)
	return s.withObservability(mux)
}

// handleUnknownRoute answers a /v1 request no route serves with the
// not_found envelope.
func handleUnknownRoute(w http.ResponseWriter, r *http.Request) {
	writeError(w, errf(http.StatusNotFound, "no route for %s %s", r.Method, r.URL.Path))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, errf(http.StatusBadRequest, "decoding job spec: %v", err))
		return
	}
	cfg, key, err := resolveSpec(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	job, err := s.submitPrepared(r.Context(), cfg, key, spec.TimeoutMS)
	if err != nil {
		writeError(w, err)
		return
	}
	// A job fast enough to finish before this line is still a 202: only
	// a cache hit, fixed at submission, answers 200.
	code := http.StatusAccepted
	if job.cached {
		code = http.StatusOK
	}
	writeJSON(w, code, job.View(false))
}

// handleJobsList is GET /v1/jobs: jobs in submission order, paged by
// the store's paginator.
func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	page, next, err := s.jobs.page(r.URL.Query())
	if err != nil {
		writeError(w, err)
		return
	}
	list := api.JobList{Jobs: make([]JobView, 0, len(page)), NextCursor: next}
	for _, j := range page {
		list.Jobs = append(list.Jobs, j.View(false))
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.jobs.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, job.View(true))
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.lookup(w, r)
	if !ok {
		return
	}
	st, b, _ := job.outcome()
	if st != StatusDone {
		writeError(w, errf(http.StatusConflict, "job %s is %s, result not available", job.ID, st))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.jobs.lookup(w, r); ok {
		s.cancelJob(job)
		writeJSON(w, http.StatusOK, job.View(false))
	}
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	levels := sim.Levels()
	names := make([]string, len(levels))
	for i, lv := range levels {
		names[i] = lv.String()
	}
	writeJSON(w, http.StatusOK, api.Workloads{
		Workloads: workloads.Names(),
		Scales:    []string{"tiny", "small", "paper"},
		Sharing:   names,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	code := http.StatusOK
	if st.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	_ = s.reg.Snapshot().WritePrometheus(w)
}

// handleDump is GET /v1/jobs/{id}/dump: the job's flight-recorder
// window as a binary MNPUFR1 dump (decode with mnputrace -mode
// postmortem). An anomaly-captured dump (watchdog, cancellation,
// timeout, error, panic) is served as stored; otherwise the recorder's
// live window is serialized on demand.
func (s *Server) handleDump(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.lookup(w, r)
	if !ok {
		return
	}
	b, reason, ok := job.Dump()
	if !ok {
		if b, ok = job.LiveDump("on-demand"); !ok {
			writeError(w, errf(http.StatusConflict,
				"job %s has no flight-recorder window (never ran: %s)", job.ID, job.Status()))
			return
		}
		reason = "on-demand"
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Dump-Reason", reason)
	_, _ = w.Write(b)
}

// handleProfile is GET /v1/jobs/{id}/profile: the pprof CPU profile the
// watchdog captured when it fired.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.lookup(w, r)
	if !ok {
		return
	}
	b, ok := job.Profile()
	if !ok {
		writeError(w, errf(http.StatusConflict, "job %s has no CPU profile (watchdog never fired)", job.ID))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(b)
}
