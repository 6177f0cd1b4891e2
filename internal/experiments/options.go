package experiments

import (
	"context"
	"fmt"
	"io"

	"mnpusim/internal/obs"
	"mnpusim/internal/workloads"
)

// Option configures a Runner at construction time. Options compose left
// to right: NewRunner(WithScale(s), WithWorkers(4)).
type Option func(*Runner)

// WithScale selects the system scale the runner's workloads and
// hardware presets are built at. The default is ScaleTiny.
func WithScale(s workloads.Scale) Option {
	return func(r *Runner) { r.opts.Scale = s }
}

// WithWorkers bounds how many simulations run concurrently. 0 (the
// default) means GOMAXPROCS; 1 runs strictly serially on the calling
// goroutine. Every experiment's results are deterministic and identical
// for any worker count.
func WithWorkers(n int) Option {
	return func(r *Runner) { r.opts.Workers = n }
}

// WithObs routes the probe stream of every simulation the runner
// executes to sink (see sim.Config.Obs). With more than one worker,
// events from concurrent simulations interleave, so the sink must be
// safe for concurrent use (wrap with obs.Locked); results are
// unaffected.
func WithObs(sink obs.Sink) Option {
	return func(r *Runner) { r.opts.Obs = sink }
}

// WithMetrics accumulates every simulation's counters into reg
// (obs.Registry is safe for concurrent use).
func WithMetrics(reg *obs.Registry) Option {
	return func(r *Runner) { r.opts.Metrics = reg }
}

// WithLogf sets the runner's progress logger: one call per completed
// simulation. Calls are serialized by the runner; under the worker pool
// the completion order (but never the content) may vary between runs.
func WithLogf(logf func(format string, args ...any)) Option {
	return func(r *Runner) { r.log = logf }
}

// WithProgress is WithLogf writing one line per call to w.
func WithProgress(w io.Writer) Option {
	return WithLogf(func(format string, args ...any) {
		fmt.Fprintf(w, format+"\n", args...)
	})
}

// WithContext attaches a cancellation context to the runner: ForEach
// stops scheduling new items and every in-flight simulation aborts at
// its next skip-window boundary once ctx is cancelled. The default is
// context.Background().
func WithContext(ctx context.Context) Option {
	return func(r *Runner) { r.ctx = ctx }
}

// WithQuadSample caps the number of quad-core mixes evaluated (0 means
// all 330). The full sweep is exact but slow; sampling takes every k-th
// mix of the deterministic enumeration.
func WithQuadSample(n int) Option {
	return func(r *Runner) { r.opts.QuadSample = n }
}

// WithMapSample caps the number of eight-workload sets evaluated in the
// mapping study (0 means all 6435).
func WithMapSample(n int) Option {
	return func(r *Runner) { r.opts.MapSample = n }
}

// WithSeed sets the seed driving the predictor's random-network
// training.
func WithSeed(seed int64) Option {
	return func(r *Runner) { r.opts.Seed = seed }
}
