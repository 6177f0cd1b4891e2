package sim

import (
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/obs"
	"mnpusim/internal/workloads"
)

// skipConfigs builds a spread of configurations that exercise every
// fast-forward path: pure compute stretches, memory-bound stretches,
// mixed clock domains, delayed starts, fixed-latency and DRAM-backed
// walks, translation removed entirely, a translation-heavy static
// split, and DWS walker stealing.
//
// The tests that run whole simulations per config, per loop, or
// several times over (kernel equivalence, attribution exactness,
// determinism, non-perturbation) call t.Parallel(), as do their
// independent subtests: under -race on a 2-CPU host the package would
// otherwise outgrow go test's default 10-minute timeout.
func skipConfigs(t *testing.T) map[string]Config {
	t.Helper()
	mustCfg := func(level Sharing, names ...string) Config {
		cfg, err := NewWorkloadConfig(workloads.ScaleTiny, level, names...)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}

	out := map[string]Config{}

	out["dual+DWT"] = mustCfg(ShareDWT, "ncf", "gpt2")
	out["dual-static"] = mustCfg(Static, "sfrnn", "res")

	ideal := mustCfg(Static, "yt", "yt")
	out["single-ideal"] = IdealFor(ideal, 0)

	slow := mustCfg(ShareDW, "ncf", "dlrm")
	slow.Arch[1].FreqHz = slow.Arch[1].FreqHz / 3 * 2 // non-integer clock ratio
	out["mixed-clocks"] = slow

	walks := mustCfg(ShareDWT, "ncf", "ncf")
	walks.DRAMBackedWalks = true
	out["dram-walks"] = walks

	notr := mustCfg(ShareD, "gpt2", "alex")
	notr.NoTranslation = true
	out["no-translation"] = notr

	stagger := mustCfg(ShareDWT, "ncf", "res")
	stagger.StartCycles = []clock.Global{0, 5000}
	out["staggered-start"] = stagger

	// Translation-heavy gathers against a compute-bound co-runner on
	// split channels and walkers.
	out["res+dlrm-static"] = mustCfg(Static, "res", "dlrm")

	// DWS walker stealing: walk dispatch depends on every core's queued
	// walks, not only on free walkers.
	dws := mustCfg(ShareDW, "ncf", "dlrm")
	dws.DWSWalkerStealing = true
	out["dws-stealing"] = dws

	return out
}

// TestSkipShortensWallClockWork asserts the skip layer actually skips:
// a compute-heavy single-core run must fast-forward most of its global
// cycles (the simulated cycle count stays identical; what shrinks is
// the number of loop iterations, observed here via the local-cycle
// bookkeeping staying exact across a long compute stretch).
func TestSkipShortensWallClockWork(t *testing.T) {
	cfg, err := NewWorkloadConfig(workloads.ScaleTiny, Static, "res", "res")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(IdealFor(cfg, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores[0].Cycles <= 0 {
		t.Fatalf("bad cycle count: %+v", res.Cores[0])
	}
}

// TestCoreNextEventMatchesTickCompletion pins the clock-domain corner
// of the protocol: the global tick a core reports for a pending compute
// completion is exactly the tick at which per-cycle ticking would
// complete it, for ratios faster, slower, and incommensurate with the
// global clock.
func TestCoreNextEventMatchesTickCompletion(t *testing.T) {
	for _, ratio := range []struct {
		name          string
		local, global clock.Hz
	}{
		{"same", clock.GHz, clock.GHz},
		{"faster", 2 * clock.GHz, clock.GHz},
		{"slower", clock.GHz, 2 * clock.GHz},
		{"odd", 700 * clock.MHz, clock.GHz},
	} {
		d := clock.NewDomain(ratio.local, ratio.global)
		for L := clock.Local(1); L < 200; L++ {
			// Completion at local cycle L fires during the first global
			// tick T whose window covers L: LocalFloor(T+1) >= L.
			want := clock.Global(-1)
			for T := clock.Global(0); T < 1000; T++ {
				if d.LocalFloor(T+1) >= L {
					want = T
					break
				}
			}
			if got := d.ToGlobal(L) - 1; got != want {
				t.Fatalf("%s: completion at local %d: ToGlobal-1 = %d, tick scan = %d", ratio.name, L, got, want)
			}
		}
	}
}

// TestDelayedCoreProbesOnItsTimeline pins a delayed core to the true
// global clock: nothing core 1 does in staggered-start (start cycle
// 5000) may be stamped before it starts. The main loop ticks a delayed
// core on its shifted timeline, so a cycle the core hands to the MMU
// without adding its start back shows up here as an early TLB or MSHR
// probe.
func TestDelayedCoreProbesOnItsTimeline(t *testing.T) {
	cfg := skipConfigs(t)["staggered-start"]
	start := cfg.StartCycles[1]
	for _, l := range Loops {
		t.Run(l.Name, func(t *testing.T) {
			_, events := captureRun(t, cfg, l)
			n := 0
			for _, e := range events {
				if e.Core != 1 || e.Kind == obs.KindCoreInfo {
					continue
				}
				n++
				if e.Cycle < start {
					t.Fatalf("core 1 starts at cycle %d, but emitted %v at cycle %d", start, e.Kind, e.Cycle)
				}
			}
			if n == 0 {
				t.Fatal("core 1 emitted no probes")
			}
		})
	}
}
