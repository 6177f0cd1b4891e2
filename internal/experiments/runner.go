// Package experiments reproduces every figure of the paper's evaluation
// (Figs 2b and 4-18) plus the ablations discussed in the text, as
// callable experiment functions. Each experiment returns a typed result
// with the same rows or series the paper reports; the bench harness
// (bench_test.go) and cmd/mnpubench print them.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"mnpusim/internal/metrics"
	"mnpusim/internal/obs"
	"mnpusim/internal/obs/hostprof"
	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

// config holds the option-controlled runner state; each field is
// documented on its With* option in options.go.
type config struct {
	Scale      workloads.Scale
	QuadSample int
	MapSample  int
	Seed       int64
	Workers    int
	Obs        obs.Sink
	Metrics    *obs.Registry
}

// memoCell is one singleflight cache slot: the first caller computes,
// concurrent callers for the same key block on the same Once, and the
// result (or error) is kept forever.
type memoCell[V any] struct {
	once sync.Once
	val  V
	err  error
}

// memoMap is a concurrency-safe singleflight memo table.
type memoMap[V any] struct {
	mu sync.Mutex
	m  map[string]*memoCell[V]
}

func newMemoMap[V any]() *memoMap[V] {
	return &memoMap[V]{m: make(map[string]*memoCell[V])}
}

// do returns the cached value for key, computing it via fn exactly once
// across all goroutines.
func (mm *memoMap[V]) do(key string, fn func() (V, error)) (V, error) {
	mm.mu.Lock()
	cell, ok := mm.m[key]
	if !ok {
		cell = &memoCell[V]{}
		mm.m[key] = cell
	}
	mm.mu.Unlock()
	cell.once.Do(func() { cell.val, cell.err = fn() })
	return cell.val, cell.err
}

// Runner executes simulations with memoization: the Ideal baselines and
// the mix results are shared across experiments (Figs 4, 6, 8, and 17
// all consume the same 36 dual mixes; Figs 5 and 7 the same quad
// mixes). All methods are safe for concurrent use; independent
// simulations run on a bounded worker pool sized by Options.Workers.
type Runner struct {
	opts  config
	names []string

	// ctx cancels the runner: ForEach stops scheduling and in-flight
	// simulations abort at their next skip-window boundary.
	ctx context.Context
	// log, if non-nil, receives one progress line per completed
	// simulation (serialized by logMu).
	log func(format string, args ...any)

	// sem bounds concurrent sim.Run calls. It is acquired only inside
	// run, never while holding it, so experiment fan-outs may nest
	// (a Dual that triggers an Ideal) without deadlock.
	sem chan struct{}

	ideal *memoMap[sim.CoreResult]
	// mixes caches mix results of any width: key "a+b+...@level".
	mixes *memoMap[sim.Result]
	runs  atomic.Int64

	logMu sync.Mutex
}

// NewRunner creates a Runner over the eight benchmarks, configured by
// the given options (see WithScale, WithWorkers, WithContext, ...).
// With no options it runs at ScaleTiny on GOMAXPROCS workers.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{
		ctx:   context.Background(),
		names: workloads.Names(),
		ideal: newMemoMap[sim.CoreResult](),
		mixes: newMemoMap[sim.Result](),
	}
	for _, opt := range opts {
		opt(r)
	}
	r.sem = make(chan struct{}, r.Workers())
	return r
}

// Scale returns the system scale the runner's workloads and hardware
// presets are built at.
func (r *Runner) Scale() workloads.Scale { return r.opts.Scale }

// Workers returns the effective worker-pool size.
func (r *Runner) Workers() int {
	if r.opts.Workers > 0 {
		return r.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Names returns the benchmark short names in Table 1 order.
func (r *Runner) Names() []string { return r.names }

// Simulations returns the number of simulations executed so far. The
// total for any experiment sequence is deterministic: memoized runs
// execute exactly once regardless of worker count.
func (r *Runner) Simulations() int { return int(r.runs.Load()) }

func (r *Runner) logf(format string, args ...any) {
	if r.log == nil {
		return
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	r.log(format, args...)
}

// run executes one simulation, counting it. The worker-pool semaphore
// is held only around sim.RunContext itself; a cancelled runner stops
// waiting for a free worker slot instead of starting a doomed run.
func (r *Runner) run(cfg sim.Config) (sim.Result, error) {
	if r.opts.Obs != nil {
		cfg.Obs = obs.Tee(cfg.Obs, r.opts.Obs)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = r.opts.Metrics
	}
	// Checked before the select too: with a free worker slot and a
	// cancelled context both ready, select would pick at random.
	if err := r.ctx.Err(); err != nil {
		return sim.Result{}, fmt.Errorf("experiments: run not started: %w", err)
	}
	select {
	case r.sem <- struct{}{}:
	case <-r.ctx.Done():
		return sim.Result{}, fmt.Errorf("experiments: run not started: %w", r.ctx.Err())
	}
	defer func() { <-r.sem }()
	r.runs.Add(1)
	return sim.RunContext(r.ctx, cfg)
}

// gridProgress publishes one ForEach grid's live progress into the
// runner's metrics registry: experiments.grid_total and
// experiments.grid_done count scheduled and completed grid items across
// the run, and experiments.grid_eta_ms estimates the current grid's
// remaining wall time from its host-clock throughput so an operator
// watching /metrics sees how far along a long sweep is. Host time flows
// only into these observability metrics, never into simulation state —
// the reads go through hostprof.Now, the sanctioned wall-clock
// boundary.
type gridProgress struct {
	total *obs.Counter
	done  *obs.Counter
	eta   *obs.Gauge
	n     int64
	did   atomic.Int64
	start int64 // hostprof.Now at grid start
}

// newGrid starts progress accounting for an n-item grid; nil (a no-op)
// when the runner has no metrics registry.
func (r *Runner) newGrid(n int) *gridProgress {
	if r.opts.Metrics == nil || n <= 0 {
		return nil
	}
	g := &gridProgress{
		total: r.opts.Metrics.Counter("experiments.grid_total"),
		done:  r.opts.Metrics.Counter("experiments.grid_done"),
		eta:   r.opts.Metrics.Gauge("experiments.grid_eta_ms"),
		n:     int64(n),
		start: hostprof.Now(),
	}
	g.total.Add(int64(n))
	return g
}

// step records one completed grid item and refreshes the ETA gauge.
func (g *gridProgress) step() {
	if g == nil {
		return
	}
	g.done.Inc()
	did := g.did.Add(1)
	if rem := g.n - did; rem > 0 {
		elapsed := hostprof.Now() - g.start
		g.eta.Set(elapsed / did * rem / 1_000_000)
	} else {
		g.eta.Set(0)
	}
}

// ForEach runs fn(0) .. fn(n-1) on the worker pool and returns the
// lowest-index error, if any. Each fn typically performs one
// simulation and writes its result into an index-addressed slot, so
// callers assemble outputs in deterministic enumeration order no matter
// how the pool interleaves execution. With a single worker it degrades
// to a plain serial loop that stops at the first error.
//
// If the runner's context (see WithContext) is cancelled, ForEach stops
// scheduling new items: unscheduled slots fail with the context's
// error, and the lowest-index rule still picks the first failure.
func (r *Runner) ForEach(n int, fn func(i int) error) error {
	g := r.newGrid(n)
	if r.Workers() <= 1 {
		for i := 0; i < n; i++ {
			if err := r.ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
			g.step()
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(r.Workers(), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
				g.step()
			}
		}()
	}
	done := r.ctx.Done()
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-done:
			for j := i; j < n; j++ {
				errs[j] = r.ctx.Err()
			}
			break feed
		}
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Ideal returns the cached Ideal (solo, full-resource) result for a
// workload, simulating it on first use. The Ideal configuration is
// derived from the dual-core system, per §4.1.3.
func (r *Runner) Ideal(name string) (sim.CoreResult, error) {
	return r.ideal.do(name, func() (sim.CoreResult, error) {
		cfg, err := sim.NewWorkloadConfig(r.opts.Scale, sim.Static, name, name)
		if err != nil {
			return sim.CoreResult{}, err
		}
		res, err := r.run(sim.IdealFor(cfg, 0))
		if err != nil {
			return sim.CoreResult{}, fmt.Errorf("experiments: ideal %s: %w", name, err)
		}
		r.logf("ideal %-6s cycles=%d", name, res.Cores[0].Cycles)
		return res.Cores[0], nil
	})
}

// Dual returns the cached dual-core mix result for (a, b) at the given
// sharing level.
func (r *Runner) Dual(a, b string, level sim.Sharing) (sim.Result, error) {
	return r.mix([]string{a, b}, level)
}

// mix returns the cached result of one mix (one workload per core) at
// the given sharing level, simulating it on first use.
func (r *Runner) mix(names []string, level sim.Sharing) (sim.Result, error) {
	mix := strings.Join(names, "+")
	return r.mixes.do(mix+"@"+level.String(), func() (sim.Result, error) {
		cfg, err := sim.NewWorkloadConfig(r.opts.Scale, level, names...)
		if err != nil {
			return sim.Result{}, err
		}
		res, err := r.run(cfg)
		if err != nil {
			return sim.Result{}, fmt.Errorf("experiments: %s %s: %w", mix, level, err)
		}
		r.logf("mix %s %s done", mix, level)
		return res, nil
	})
}

// Speedup returns workload name's speedup given its measured cycles,
// against the cached Ideal baseline.
func (r *Runner) Speedup(name string, cycles int64) (float64, error) {
	ib, err := r.Ideal(name)
	if err != nil {
		return 0, err
	}
	return metrics.Speedup(ib.Cycles, cycles), nil
}

// DualMixes enumerates the 36 dual-core mixes in deterministic order.
func (r *Runner) DualMixes() [][2]string {
	var out [][2]string
	for i := 0; i < len(r.names); i++ {
		for j := i; j < len(r.names); j++ {
			out = append(out, [2]string{r.names[i], r.names[j]})
		}
	}
	return out
}

// mixSpeedups runs one dual mix and returns the two speedups.
func (r *Runner) mixSpeedups(a, b string, level sim.Sharing) (sa, sb float64, err error) {
	res, err := r.Dual(a, b, level)
	if err != nil {
		return 0, 0, err
	}
	if sa, err = r.Speedup(a, res.Cores[0].Cycles); err != nil {
		return 0, 0, err
	}
	if sb, err = r.Speedup(b, res.Cores[1].Cycles); err != nil {
		return 0, 0, err
	}
	return sa, sb, nil
}
