package sim_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mnpusim/internal/obs"
	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

func tinyDual(t *testing.T) sim.Config {
	t.Helper()
	cfg, err := sim.NewWorkloadConfig(workloads.ScaleTiny, sim.Static, "ncf", "gpt2")
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sim.RunContext(ctx, tinyDual(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "not started") {
		t.Errorf("pre-cancelled run error should say it never started: %v", err)
	}
}

// TestRunContextMidRunCancel cancels from the first DMA issue's probe
// event, so the cancellation deterministically lands mid-simulation.
// The run must
// abort at its next cancellation poll — a processed-cycle budget under
// the event kernel and the tick reference alike — with an error
// wrapping context.Canceled, rather than run to completion.
func TestRunContextMidRunCancel(t *testing.T) {
	for _, l := range sim.Loops {
		t.Run(l.Name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := tinyDual(t)
			var once sync.Once
			cfg.Obs = cancelAtFirstIssue(&once, cancel)

			start := time.Now()
			_, err := l.Run(ctx, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v does not wrap context.Canceled", err)
			}
			if !strings.Contains(err.Error(), "cancelled at cycle") {
				t.Errorf("mid-run cancel should report the abort cycle: %v", err)
			}
			// A tiny run takes well under this; the bound only catches
			// a loop that ignored the cancellation and ran to the end.
			if d := time.Since(start); d > 30*time.Second {
				t.Errorf("cancelled run took %v", d)
			}
		})
	}
}

// cancelAtFirstIssue is a probe sink that cancels on the run's first DMA
// issue.
func cancelAtFirstIssue(once *sync.Once, cancel context.CancelFunc) obs.Sink {
	return obs.Func(func(e obs.Event) {
		if e.Kind == obs.KindDMAIssue {
			once.Do(cancel)
		}
	})
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	_, err := sim.RunContext(ctx, tinyDual(t))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// TestRunContextNoGoroutineLeak checks that cancelled runs do not leave
// goroutines behind (the simulator is single-goroutine; a leak here
// would mean cancellation spawned watchers it never reaped).
func TestRunContextNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := tinyDual(t)
		var once sync.Once
		cfg.Obs = cancelAtFirstIssue(&once, cancel)
		if _, err := sim.RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: %v", i, err)
		}
		cancel()
	}
	// Allow the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d across cancelled runs", before, after)
	}
}

// TestRunIdealContextCancelled covers the per-core Ideal loop's
// cancellation path.
func TestRunIdealContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sim.RunIdealContext(ctx, tinyDual(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}
