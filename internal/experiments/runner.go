// Package experiments reproduces every figure of the paper's evaluation
// (Figs 2b and 4-18) plus the ablations discussed in the text, as
// callable experiment functions. Each experiment returns a typed result
// with the same rows or series the paper reports; cmd/mnpubench, the
// one harness, prints them. Every mix x setting study — the sharing and
// partitioning grids, the bandwidth and page-size sweeps, attribution,
// the ablations, and the serving daemon's sweeps — runs through one
// executor (Grid.Each) and is scored by one type (Scores). Grid.Run is
// Each over the Runner's memo, through which every simulation that
// only yields a result goes, keyed by the configuration's fingerprint.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

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

// memoCell is one singleflight cache slot: the first caller simulates,
// concurrent callers for the same fingerprint block on the same Once,
// and the result (or error) is kept forever.
type memoCell struct {
	once sync.Once
	res  sim.Result
	err  error
}

// Runner executes simulations with memoization: every result-only
// simulation goes through one memo keyed by the configuration's
// fingerprint (sim.Config.Fingerprint, the serving cache's key), so
// studies that request the same configuration simulate it once. Figs 4,
// 6, 8 and 17 read the same 36 dual mixes, Fig 13's dynamic cells are
// Fig 4's +DW cells, and every study shares the Ideal baselines. All
// methods are safe for concurrent use; independent simulations run on
// a bounded worker pool sized by WithWorkers.
type Runner struct {
	opts  config
	names []string

	// ctx cancels the runner: ForEach stops scheduling and in-flight
	// simulations abort at their next skip-window boundary.
	ctx context.Context
	// progress, if non-nil, receives one line per completed simulation
	// (serialized by logMu).
	progress io.Writer

	// sem bounds concurrent sim.Run calls. It is acquired only inside
	// run, never while holding it, so experiment fan-outs may nest
	// (a grid cell that triggers an Ideal) without deadlock.
	sem chan struct{}

	memoMu sync.Mutex
	memo   map[string]*memoCell // by sim.Config.Fingerprint
	runs   atomic.Int64

	logMu sync.Mutex
}

// NewRunner creates a Runner over the eight benchmarks, configured by
// the given options (see WithScale, WithWorkers, WithContext, ...).
// With no options it runs at ScaleTiny on GOMAXPROCS workers.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{
		ctx:   context.Background(),
		names: workloads.Names(),
		memo:  make(map[string]*memoCell),
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
	if r.progress == nil {
		return
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	fmt.Fprintf(r.progress, format+"\n", args...)
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

// result returns cfg's Result, simulating it only the first time any
// caller asks for a config with its fingerprint; concurrent callers for
// one fingerprint wait for the one run. It is for result-only configs:
// a run whose probe sink the caller reads (Figs 2b and 12, attribution)
// goes through run, since a memo hit would leave that sink empty.
func (r *Runner) result(cfg sim.Config) (sim.Result, error) {
	key, err := cfg.Fingerprint()
	if err != nil {
		return sim.Result{}, err
	}
	r.memoMu.Lock()
	cell, ok := r.memo[key]
	if !ok {
		cell = &memoCell{}
		r.memo[key] = cell
	}
	r.memoMu.Unlock()
	cell.once.Do(func() {
		names := make([]string, len(cfg.Nets))
		for i, n := range cfg.Nets {
			names[i] = n.Name
		}
		mix := strings.Join(names, "+")
		cell.res, cell.err = r.run(cfg)
		if cell.err != nil {
			cell.err = fmt.Errorf("experiments: %s %s: %w", mix, cfg.Sharing, cell.err)
			return
		}
		r.logf("sim %s %s %.12s done", mix, cfg.Sharing, key)
	})
	return cell.res, cell.err
}

// Ideal returns workload name's Ideal result, simulating it on first
// use.
func (r *Runner) Ideal(name string) (sim.CoreResult, error) {
	cfg, err := sim.NewIdealConfig(r.opts.Scale, name)
	if err != nil {
		return sim.CoreResult{}, err
	}
	res, err := r.result(cfg)
	if err != nil {
		return sim.CoreResult{}, err
	}
	return res.Cores[0], nil
}

// Dual returns the result of the dual-core mix (a, b) at the given
// sharing level, simulating it on first use.
func (r *Runner) Dual(a, b string, level sim.Sharing) (sim.Result, error) {
	cfg, err := sim.NewWorkloadConfig(r.opts.Scale, level, a, b)
	if err != nil {
		return sim.Result{}, err
	}
	return r.result(cfg)
}
