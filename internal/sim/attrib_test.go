package sim

import (
	"context"
	"reflect"
	"testing"

	"mnpusim/internal/obs"
	"mnpusim/internal/workloads"
)

// TestAttributionSumsMatchResult is the attribution engine's exactness
// contract, checked across the same configuration classes the kernel
// equivalence test uses (shared/static sharing, a solo Ideal,
// non-integer clock ratios, DRAM-backed walks, no translation,
// staggered starts, a gather-heavy static mix): for every core, the
// buckets are non-negative, non-overlapping by construction, and sum
// exactly to the core's measured first-inference cycles. The whole matrix runs under the
// event kernel and the tick reference — attribution consumes the probe
// stream, so the event kernel's skip windows must leave it exact too.
func TestAttributionSumsMatchResult(t *testing.T) {
	if testing.Short() {
		t.Skip("several full simulations")
	}
	t.Parallel()
	for _, l := range Loops {
		for name, cfg := range skipConfigs(t) {
			t.Run(l.Name+"/"+name, func(t *testing.T) {
				t.Parallel()
				checkAttributionExact(t, cfg, l)
			})
		}
	}
}

func checkAttributionExact(t *testing.T, cfg Config, l Loop) {
	eng := NewAttribution(cfg)
	cfg.Obs = obs.Tee(cfg.Obs, eng)
	res, err := l.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Finalized() {
		t.Fatal("engine not finalized after a completed run")
	}
	rep := eng.Report()
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cores) != len(res.Cores) {
		t.Fatalf("%d attributed cores, %d result cores", len(rep.Cores), len(res.Cores))
	}
	for i, c := range rep.Cores {
		if c.TotalCycles != res.Cores[i].Cycles {
			t.Errorf("core %d: attributed window %d != measured cycles %d",
				i, c.TotalCycles, res.Cores[i].Cycles)
		}
		if c.Sum() != c.TotalCycles {
			t.Errorf("core %d: buckets sum to %d, window is %d", i, c.Sum(), c.TotalCycles)
		}
		if c.Net != res.Cores[i].Net {
			t.Errorf("core %d: label %q != %q", i, c.Net, res.Cores[i].Net)
		}
		if c.Compute == 0 {
			t.Errorf("core %d: no compute cycles attributed: %+v", i, c)
		}
	}
}

// TestAttributionIdenticalAcrossKernels pins the local-cycle partition
// against the simulation driver: neither the tick reference's
// fast-forward nor the event kernel's selective waking suppresses a
// probe event, so the breakdown must be identical cycle for cycle.
func TestAttributionIdenticalAcrossKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("two full simulations")
	}
	t.Parallel()
	cfg, err := NewWorkloadConfig(workloads.ScaleTiny, ShareDWT, "ncf", "gpt2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(l Loop) any {
		c := cfg
		eng := NewAttribution(c)
		c.Obs = eng
		if _, err := l.Run(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		return eng.Report()
	}
	ticked, evented := run(Loops[0]), run(Loops[1])
	if !reflect.DeepEqual(ticked, evented) {
		t.Errorf("kernel changed attribution:\ntick:  %+v\nevent: %+v", ticked, evented)
	}
}

// TestAttributionSeesContention sanity-checks the paper-facing signal:
// a shared-everything dual-core run must attribute a nonzero share of
// at least one core's window to memory-system or translation waits.
func TestAttributionSeesContention(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	cfg, err := NewWorkloadConfig(workloads.ScaleTiny, ShareDWT, "dlrm", "res")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewAttribution(cfg)
	cfg.Obs = eng
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var stall int64
	for _, c := range eng.Report().Cores {
		stall += c.DRAMQueue + c.RowConflict + c.Transfer + c.PTWQueue + c.Walk
	}
	if stall == 0 {
		t.Errorf("no stall cycles attributed in a contended run: %+v", eng.Report())
	}
}
