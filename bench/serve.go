package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/obs/hostprof"
	"mnpusim/internal/serve/api"
	"mnpusim/internal/serve/client"
)

// pollInterval paces the polling of a job that was not served from the
// cache.
const pollInterval = 25 * time.Millisecond

// startRepeats is how many times a serve workload starts its measured
// daemon configuration; setup_s uses the median start.
const startRepeats = 3

// idleProbes is how many host probes a serve workload runs just before
// and just after its open loop, while the daemon is idle.
const idleProbes = 15

// daemonOpts are the daemon flags a workload sets; everything else is
// the daemon's default.
type daemonOpts struct {
	cacheDir     string
	cacheEntries int
}

// target is one running daemon.
type target interface {
	url() string
	peakRSSMB() (float64, error)
	// cpuSeconds is the CPU time the daemon has used so far.
	cpuSeconds() (float64, error)
	stop() error
}

// startFunc boots a daemon and returns once it answers /v1/healthz.
type startFunc func(ctx context.Context, o daemonOpts) (target, error)

// processDaemon starts the mnpuserved binary at bin on a free loopback
// port. Its log goes to /dev/null.
func processDaemon(bin string) startFunc {
	return func(ctx context.Context, o daemonOpts) (target, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := []string{"-addr", addr}
		if o.cacheDir != "" {
			args = append(args, "-cache-dir", o.cacheDir)
		}
		if o.cacheEntries > 0 {
			args = append(args, "-cache", strconv.Itoa(o.cacheEntries))
		}
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		// The daemon dies with the benchmark even if the benchmark is
		// killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		p := &proc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
		go func() {
			p.waitErr = cmd.Wait()
			close(p.exited)
		}()
		if err := waitHealthy(ctx, p); err != nil {
			_ = p.stop()
			return nil, err
		}
		return p, nil
	}
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitHealthy polls /v1/healthz until it answers ok.
func waitHealthy(ctx context.Context, p *proc) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	cl := client.New(p.base)
	for {
		st, err := cl.Healthz(ctx)
		if err == nil && st.Status == "ok" {
			return nil
		}
		select {
		case <-p.exited:
			return fmt.Errorf("daemon exited before answering /v1/healthz: %v", p.waitErr)
		case <-ctx.Done():
			return fmt.Errorf("daemon at %s never became healthy: %v", p.base, err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// proc is a daemon subprocess.
type proc struct {
	cmd     *exec.Cmd
	base    string
	exited  chan struct{}
	waitErr error // set before exited closes

	stopOnce sync.Once
	stopErr  error
}

func (p *proc) url() string { return p.base }

func (p *proc) peakRSSMB() (float64, error) { return peakRSSMB(strconv.Itoa(p.cmd.Process.Pid)) }

func (p *proc) cpuSeconds() (float64, error) { return cpuSeconds(strconv.Itoa(p.cmd.Process.Pid)) }

// stop sends SIGTERM, lets the daemon drain, and kills it if it has not
// exited within 30 s. Later calls return the first call's error.
func (p *proc) stop() error {
	p.stopOnce.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.exited:
			p.stopErr = p.waitErr
		case <-time.After(30 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.exited
			p.stopErr = errors.New("daemon did not drain within 30 s")
		}
	})
	return p.stopErr
}

// newClient returns a client that holds at most nproc connections to
// base, so one process cannot out-parallelize the daemon's CPUs.
func newClient(base string) *client.Client {
	n := runtime.NumCPU()
	cl := client.New(base)
	cl.HTTP = &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
	return cl
}

// startMeasured starts the measured daemon startRepeats times, keeping
// the last. Each start from exec to a healthy /v1/healthz, then warm on
// the started daemon if warm is set, is one set-up sample, plus fixed
// (time already spent on set-up before it).
func startMeasured(ctx context.Context, e *env, o daemonOpts, fixed time.Duration, warm func(target), out *outcome) (target, error) {
	for i := 0; ; i++ {
		t := time.Now()
		d, err := e.start(ctx, o)
		if err != nil {
			return nil, err
		}
		if warm != nil {
			warm(d)
		}
		out.setup = append(out.setup, fixed+time.Since(t))
		if i == startRepeats-1 {
			return d, nil
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
}

// warmUp simulates units into the daemon's cache, all submitted at once,
// and checks their results. The jobs count as attempted but are not
// measured operations.
func warmUp(ctx context.Context, cl *client.Client, units []unit, golden map[string]string, out *outcome) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	rs := make([]jobResult, len(units))
	var wg sync.WaitGroup
	for i, u := range units {
		wg.Add(1)
		go func(i int, u unit) {
			defer wg.Done()
			rs[i] = runJob(ctx, cl, nil, dtrace.SpanContext{}, time.Now(), u)
		}(i, u)
	}
	wg.Wait()
	ops := len(out.ops)
	tally(out, golden, rs)
	out.ops = out.ops[:ops]
}

// jobResult is one job's outcome.
type jobResult struct {
	label string
	// latency runs from the scheduled send to the received result bytes;
	// late is how far after its scheduled time the send began.
	latency, late time.Duration
	polls         int
	digest        string
	err           error
}

// runJob submits one job, polls it until it is terminal, and fetches its
// result. tr records the bench's spans under parent; a nil tr records
// none, but a valid parent still rides the submission.
func runJob(ctx context.Context, cl *client.Client, tr *dtrace.Tracer, parent dtrace.SpanContext, sched time.Time, u unit) jobResult {
	r := jobResult{label: u.label(), late: time.Since(sched)}
	job := tr.Start(parent, "job")
	job.SetStart(wallAt(sched))
	job.SetAttr("config", r.label)
	defer job.End()

	submit := tr.Start(job.Context(), "submit")
	sctx := dtrace.With(ctx, parent)
	if submit != nil {
		sctx = dtrace.With(ctx, submit.Context())
	}
	v, err := cl.SubmitJob(sctx, u.spec())
	submit.End()
	if err != nil {
		r.err = err
		return r
	}
	if !v.Status.Terminal() {
		poll := tr.Start(job.Context(), "poll")
		for !v.Status.Terminal() {
			select {
			case <-ctx.Done():
				r.err = ctx.Err()
				poll.End()
				return r
			case <-time.After(pollInterval):
			}
			r.polls++
			if v, err = cl.Job(ctx, v.ID); err != nil {
				r.err = err
				poll.End()
				return r
			}
		}
		poll.End()
	}
	if v.Status != api.StatusDone {
		r.err = fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
		return r
	}
	res := tr.Start(job.Context(), "result")
	body, err := cl.JobResult(ctx, v.ID)
	res.End()
	r.digest, r.err = digest(body), err
	r.latency = time.Since(sched)
	return r
}

// wallAt converts a time.Time in the past to the span clock.
func wallAt(t time.Time) int64 { return hostprof.WallNow() - time.Since(t).Nanoseconds() }

// arrivals draws n Poisson arrival offsets in [0, window): a Poisson
// process conditioned on its count, so every seed offers the same load.
func arrivals(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// openLoop sends job i at start+at[i] regardless of earlier jobs, each on
// its own goroutine (the client's connection cap bounds what is on the
// wire), and returns once every job has finished.
func openLoop(at []time.Duration, job func(i int, sched time.Time)) time.Time {
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range at {
		sched := start.Add(off)
		time.Sleep(time.Until(sched))
		wg.Add(1)
		go func(i int, sched time.Time) {
			defer wg.Done()
			job(i, sched)
		}(i, sched)
	}
	wg.Wait()
	return start
}

// tally folds job results into the outcome.
func tally(out *outcome, golden map[string]string, rs []jobResult) {
	for _, r := range rs {
		out.attempted++
		if r.err != nil {
			out.fail(r.label, r.err)
			continue
		}
		out.check(golden, r.label, r.digest)
		out.ops = append(out.ops, r.latency)
	}
}

// serveLayers computes the serve and client layer metrics from a traced
// run's spans, its jobs, and the daemon registry's change over the run.
func serveLayers(spans []dtrace.Span, rs []jobResult, delta map[string]int64, distinct int) map[string]float64 {
	s := map[string]float64{}
	addRegistry(s, delta)
	daemon := func(name string) func(dtrace.Span) bool {
		return func(sp dtrace.Span) bool { return sp.Service != "bench" && sp.Name == name }
	}
	bench := func(name string) func(dtrace.Span) bool {
		return func(sp dtrace.Span) bool { return sp.Service == "bench" && sp.Name == name }
	}
	tier := func(t string) func(dtrace.Span) bool {
		return func(sp dtrace.Span) bool { return sp.Name == "cache_lookup" && sp.Attrs["tier"] == t }
	}
	s["serve.queue_wait_p50_ms"] = spanPercentileMS(spans, 50, daemon("queue_wait"))
	s["serve.queue_wait_p95_ms"] = spanPercentileMS(spans, 95, daemon("queue_wait"))
	s["serve.sim_run_p50_ms"] = spanPercentileMS(spans, 50, daemon("sim_run"))
	s["serve.sim_run_p95_ms"] = spanPercentileMS(spans, 95, daemon("sim_run"))
	s["serve.http_p50_ms"] = spanPercentileMS(spans, 50, daemon("http POST /v1/jobs"))
	s["serve.http_p99_ms"] = spanPercentileMS(spans, 99, daemon("http POST /v1/jobs"))
	s["serve.cache_lookup_memory_p50_us"] = 1e3 * spanPercentileMS(spans, 50, tier("memory"))
	s["serve.cache_lookup_disk_p50_us"] = 1e3 * spanPercentileMS(spans, 50, tier("disk"))
	s["client.submit_p50_ms"] = spanPercentileMS(spans, 50, bench("submit"))
	s["client.submit_p99_ms"] = spanPercentileMS(spans, 99, bench("submit"))
	s["client.result_p50_ms"] = spanPercentileMS(spans, 50, bench("result"))
	if n := delta["serve.jobs_submitted"]; n > 0 {
		s["serve.cache_hit_rate"] = float64(delta["serve.cache_hits"]) / float64(n)
	}
	s["serve.sims_per_distinct_config"] = float64(delta["serve.simulations"]) / float64(distinct)
	var polls int
	late := make([]time.Duration, 0, len(rs))
	for _, r := range rs {
		polls += r.polls
		late = append(late, r.late)
	}
	s["client.polls_per_job"] = float64(polls) / float64(len(rs))
	s["bench.gen_late_p99_ms"] = percentileMS(late, 99)
	return s
}

// registryDelta returns after minus before for every metric.
func registryDelta(before, after map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// collectServeLayers fills a traced serve run's layers and spans: the
// bench's spans of trace id joined with the daemon's, the open-loop jobs
// rs, and the daemon registry's change since before over one pass of
// length pass.
func collectServeLayers(ctx context.Context, cl *client.Client, store *dtrace.Store, before map[string]int64, id string, rs []jobResult, distinct int, pass time.Duration, out *outcome) error {
	after, err := cl.Registry(ctx)
	if err != nil {
		return err
	}
	v, err := cl.Trace(ctx, id, true)
	if err != nil {
		return fmt.Errorf("fetching trace %s: %w", id, err)
	}
	own, _ := store.Get(id)
	spans := append(v.Spans, own...)
	out.layers = serveLayers(spans, rs, registryDelta(before, after), distinct)
	out.layers["bench.pass_s"] = pass.Seconds()
	out.layers["bench.host_probe_ms"] = percentileMS(out.probes, 50)
	// The daemon runs runtime.NumCPU() workers by default.
	var simNS int64
	for _, sp := range spans {
		if sp.Service != "bench" && sp.Name == "sim_run" {
			simNS += sp.DurNS
		}
	}
	out.layers["serve.sim_busy_frac"] = float64(simNS) / (float64(runtime.NumCPU()) * float64(pass))
	out.layers = finishLayers(out.layers)
	out.spans = traceParts{traceID: id, spans: spans}
	return nil
}

// mixedWorkload is open-loop job traffic at a fixed rate for --seconds
// against a daemon whose cache set-up filled with the hot configurations:
// every cold configuration once, in seeded order at seeded arrival slots,
// and every other arrival repeating a hot configuration or a cold one
// submitted at least settle earlier. A repeat of a cold configuration that
// is still queued or running simulates it again, since the daemon does not
// merge identical in-flight jobs.
type mixedWorkload struct {
	hot, cold []unit
	rate      float64
	settle    time.Duration
}

func (w mixedWorkload) units() []unit { return bothPlacements(concat(w.hot, w.cold)) }

// schedule returns the arrival offsets and the configuration of each.
// The cold configurations arrive one per window/len(cold) slot, at a
// uniform offset within it, so every seed spreads the simulation load
// over the window alike; the repeats arrive as a Poisson process. A
// repeat of a hot configuration names it exactly as set-up cached it.
func (w mixedWorkload) schedule(seed int64, window time.Duration) ([]time.Duration, []unit) {
	rng := rand.New(rand.NewSource(seed))
	cold := seeded(w.cold, rng)
	eligible := append([]unit(nil), w.hot...)
	slot := window / time.Duration(len(cold))
	type arrival struct {
		at   time.Duration
		cold bool
	}
	var arr []arrival
	for k := range cold {
		arr = append(arr, arrival{time.Duration(k)*slot + time.Duration(rng.Int63n(int64(slot))), true})
	}
	for _, at := range arrivals(rng, max(int(w.rate*window.Seconds())-len(cold), 0), window) {
		arr = append(arr, arrival{at: at})
	}
	sort.Slice(arr, func(i, j int) bool { return arr[i].at < arr[j].at })

	at := make([]time.Duration, len(arr))
	jobs := make([]unit, len(arr))
	var pending []int // arrivals of cold configurations not yet settled
	for i, a := range arr {
		at[i] = a.at
		for len(pending) > 0 && at[pending[0]]+w.settle <= a.at {
			eligible = append(eligible, jobs[pending[0]])
			pending = pending[1:]
		}
		if a.cold {
			jobs[i] = cold[0]
			cold = cold[1:]
			pending = append(pending, i)
		} else {
			jobs[i] = eligible[rng.Intn(len(eligible))]
		}
	}
	return at, jobs
}

func (w mixedWorkload) run(ctx context.Context, e *env, traced bool) (*outcome, error) {
	at, jobs := w.schedule(e.seed, e.seconds)
	out := newOutcome()
	warm := func(d target) { warmUp(ctx, newClient(d.url()), w.hot, e.golden, out) }
	d, err := startMeasured(ctx, e, daemonOpts{}, 0, warm, out)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if err := measureOpenLoop(ctx, e, d, at, jobs, traced, 1, len(w.cold), out); err != nil {
		return nil, err
	}
	return out, d.stop()
}

// warmWorkload is open-loop traffic at a fixed rate for --seconds over a
// population that set-up has already simulated, so every job is a cache
// hit. The measured daemon's memory tier holds only memEntries of the
// configurations; the rest are read from the disk tier (and promoted,
// evicting others).
type warmWorkload struct {
	population []unit
	memEntries int
	rate       float64
	// sample is 1 in how many jobs of a traced run record the bench's
	// spans.
	sample int
}

func (w warmWorkload) units() []unit { return bothPlacements(w.population) }

func (w warmWorkload) run(ctx context.Context, e *env, traced bool) (*outcome, error) {
	rng := rand.New(rand.NewSource(e.seed))
	pop := seeded(w.population, rng)
	at := arrivals(rng, int(w.rate*e.seconds.Seconds()), e.seconds)
	jobs := make([]unit, len(at))
	for i := range jobs {
		jobs[i] = pop[rng.Intn(len(pop))]
	}
	out := newOutcome()
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.workDir, "serve-warm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: a daemon holding the whole population simulates it into
	// the cache directory, then the measured daemon starts over the same
	// directory with a memory tier too small for the population.
	t := time.Now()
	warm, err := e.start(ctx, daemonOpts{cacheDir: dir, cacheEntries: len(pop)})
	if err != nil {
		return nil, err
	}
	warmUp(ctx, newClient(warm.url()), pop, e.golden, out)
	if err := warm.stop(); err != nil {
		return nil, err
	}
	d, err := startMeasured(ctx, e, daemonOpts{cacheDir: dir, cacheEntries: w.memEntries}, time.Since(t), nil, out)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if err := measureOpenLoop(ctx, e, d, at, jobs, traced, w.sample, len(pop), out); err != nil {
		return nil, err
	}
	return out, d.stop()
}

// measureOpenLoop sends jobs[i] to the daemon d at offset at[i] of a
// --seconds window and folds the results into out. ops_per_s is the jobs
// completed per second of the daemon's CPU time: the rate one fully busy
// CPU would serve this mix at. (Jobs per wall second would only echo the
// offered rate, and a closed loop's jobs per second did not repeat
// between consecutive runs on a 2-CPU host.) Host probes run just before
// and just after the loop.
//
// A traced run records the bench's spans for every sample-th job, from
// job 0, and collects the layers. The other jobs carry a sampled context of a
// trace that is never fetched: without one, each submission would start a
// root trace of its own in the daemon and evict the bench's trace from its
// bounded span store. distinct is how many configurations the run submits
// that set-up did not simulate.
func measureOpenLoop(ctx context.Context, e *env, d target, at []time.Duration, jobs []unit, traced bool, sample, distinct int, out *outcome) error {
	cl := newClient(d.url())
	before, err := cl.Registry(ctx)
	if err != nil {
		return err
	}
	tr, store := newTracer(traced)
	root := tr.Start(dtrace.SpanContext{}, "bench open loop")
	var sink dtrace.SpanContext
	if traced {
		sink = dtrace.SpanContext{TraceID: tr.NewTraceID(), SpanID: tr.NewSpanID(), Sampled: true}
	}
	jctx, cancel := context.WithTimeout(ctx, e.seconds+2*time.Minute)
	defer cancel()
	probeHost(out, idleProbes)
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	rs := make([]jobResult, len(jobs))
	start := openLoop(at, func(i int, sched time.Time) {
		jt, sc := tr, root.Context()
		if i%sample != 0 {
			jt, sc = nil, sink
		}
		rs[i] = runJob(jctx, cl, jt, sc, sched, jobs[i])
	})
	elapsed := time.Since(start)
	root.End()
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	probeHost(out, idleProbes)

	tally(out, e.golden, rs)
	out.opsPerSec = float64(len(out.ops)) / (cpu1 - cpu0)
	if out.rssMB, err = d.peakRSSMB(); err != nil {
		return err
	}
	if !traced {
		return nil
	}
	return collectServeLayers(ctx, cl, store, before, root.Context().TraceID, rs, distinct, elapsed, out)
}
