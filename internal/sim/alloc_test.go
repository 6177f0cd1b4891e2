package sim

import (
	"runtime"
	"testing"

	"mnpusim/internal/invariant"
	"mnpusim/internal/workloads"
)

// kernelConfigs are BenchmarkKernel's two fixed tiny runs: alex+dlrm at
// +DWT, translation-heavy under contention for the shared TLB, walkers
// and DRAM, and res+dlrm at +D without translation, where DRAM does the
// most work per request.
func kernelConfigs(tb testing.TB) []Config {
	tb.Helper()
	dwt, err := NewWorkloadConfig(workloads.ScaleTiny, ShareDWT, "alex", "dlrm")
	if err != nil {
		tb.Fatal(err)
	}
	notrans, err := NewWorkloadConfig(workloads.ScaleTiny, ShareD, "res", "dlrm")
	if err != nil {
		tb.Fatal(err)
	}
	notrans.NoTranslation = true
	return []Config{dwt, notrans}
}

// BenchmarkKernel runs both kernelConfigs through Run; one op is the
// pair. A first untimed pass warms the tile-schedule cache, so an op
// costs simulation alone.
func BenchmarkKernel(b *testing.B) {
	cfgs := kernelConfigs(b)
	for _, cfg := range cfgs {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, cfg := range cfgs {
			if _, err := Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestRunAllocsPerRequest guards the request path against allocation:
// each of kernelConfigs' whole dual-core runs, set-up included, must
// allocate under 0.1 times and under 16 bytes per DRAM request. The
// cores recycle their data requests, the MMU its walk jobs and MSHR
// entries, and a page table walks into a slice it keeps, so what
// remains is building the system, the page tables' first touches and
// filling the free lists. The byte bound catches a request that is no
// longer recycled, which the count alone would miss: cores allocate
// requests 64 at a time, and each is 40 bytes. The invariant checks
// box their arguments, so the guard runs only without them.
func TestRunAllocsPerRequest(t *testing.T) {
	if invariant.Enabled {
		t.Skip("the invariant checks allocate")
	}
	if testing.Short() {
		t.Skip("three full simulations per configuration")
	}
	for _, cfg := range kernelConfigs(t) {
		name := cfg.Sharing.String()
		if cfg.NoTranslation {
			name += "-notrans"
		}
		t.Run(name, func(t *testing.T) { allocsPerRequest(t, cfg) })
	}
}

func allocsPerRequest(t *testing.T, cfg Config) {
	var res Result
	run := func() {
		var err error
		if res, err = Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // fills the tile-schedule cache
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(1, run) // a warm-up run, then the counted one
	runtime.ReadMemStats(&after)
	tot := res.DRAM.Totals()
	reqs := float64(tot.Reads + tot.Writes)
	if reqs == 0 {
		t.Fatal("the run moved no data")
	}
	perReq := allocs / reqs
	bytesPerReq := float64(after.TotalAlloc-before.TotalAlloc) / 2 / reqs
	t.Logf("%.0f allocations and %.1f bytes per run of %.0f DRAM requests: %.4f and %.1f per request",
		allocs, bytesPerReq*reqs, reqs, perReq, bytesPerReq)
	if perReq > 0.1 {
		t.Errorf("%.3f allocations per DRAM request, want at most 0.1", perReq)
	}
	if bytesPerReq > 16 {
		t.Errorf("%.1f bytes allocated per DRAM request, want at most 16", bytesPerReq)
	}
}
