package serve

import (
	"testing"

	"mnpusim/internal/obs"
	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

// observedConfigs are the two fixed tiny runs of sim's BenchmarkKernel:
// alex+dlrm at +DWT, translation-heavy under contention for the shared
// TLB, walkers and DRAM, and res+dlrm at +D without translation, where
// DRAM does the most work per request.
func observedConfigs(tb testing.TB) []sim.Config {
	tb.Helper()
	dwt, err := sim.NewWorkloadConfig(workloads.ScaleTiny, sim.ShareDWT, "alex", "dlrm")
	if err != nil {
		tb.Fatal(err)
	}
	notrans, err := sim.NewWorkloadConfig(workloads.ScaleTiny, sim.ShareD, "res", "dlrm")
	if err != nil {
		tb.Fatal(err)
	}
	notrans.NoTranslation = true
	return []sim.Config{dwt, notrans}
}

// BenchmarkObservedRun prices the probe stack every served job
// carries. One op runs both observedConfigs: bare through sim.Run with
// no sink, served with the stack runJob attaches (observed), folding
// into one registry that outlives the runs as the daemon's does. The
// ratio of the two is the cost of observing a served run. A first
// untimed pass warms the tile-schedule cache.
func BenchmarkObservedRun(b *testing.B) {
	cfgs := observedConfigs(b)
	for _, cfg := range cfgs {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for _, cfg := range cfgs {
				if _, err := sim.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("served", func(b *testing.B) {
		reg := obs.NewRegistry()
		b.ReportAllocs()
		for range b.N {
			for _, cfg := range cfgs {
				var progress jobProgress
				cfg, _, _ := observed(cfg, reg, &progress)
				if _, err := sim.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestServedFoldAllocatesNothing records one served configuration's
// probe stream and folds it through the served stack, composed as
// sim.Run composes it (the observed sinks, then the registry fold).
// Once a first pass has resolved every metric handle, a pass must not
// allocate.
func TestServedFoldAllocatesNothing(t *testing.T) {
	cfg := observedConfigs(t)[0]
	var events []obs.Event
	cfg.Obs = obs.Func(func(e obs.Event) { events = append(events, e) })
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Obs = nil

	var progress jobProgress
	served, _, _ := observed(cfg, obs.NewRegistry(), &progress)
	sink := obs.Tee(served.Obs, obs.NewRegistrySink(served.Metrics))
	fold := func() {
		for _, e := range events {
			sink.Emit(e)
		}
	}
	fold()
	if n := testing.AllocsPerRun(1, fold); n != 0 {
		t.Errorf("folding %d events through the served stack allocated %.0f times, want 0", len(events), n)
	}
}
