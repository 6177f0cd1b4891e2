package sim_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mnpusim/internal/obs"
	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

// TestObsDoesNotPerturbResults runs the same dual-core mix with and
// without the full observability stack — Chrome trace, counter
// registry, and the stall-cycle attribution engine — and byte-compares
// the serialized results: observation must never alter execution.
func TestObsDoesNotPerturbResults(t *testing.T) {
	t.Parallel()
	cfg, err := sim.NewWorkloadConfig(workloads.ScaleTiny, sim.ShareDWT, "ncf", "gpt2")
	if err != nil {
		t.Fatal(err)
	}

	bare, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	chrome := obs.NewChromeTrace(&trace)
	attr := sim.NewAttribution(cfg)
	cfg.Obs = obs.Tee(chrome, attr)
	cfg.Metrics = obs.NewRegistry()
	observed, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := chrome.Close(); err != nil {
		t.Fatal(err)
	}
	if err := attr.Report().Validate(); err != nil {
		t.Fatal(err)
	}

	js1, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	js2, err := json.Marshal(observed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1, js2) {
		t.Errorf("results differ with observability on:\noff: %s\non:  %s", js1, js2)
	}
}

// TestObsChromeTraceStructure validates the exported timeline of a real
// dual-core run: parseable, per-track monotonic, balanced spans, and
// one named track per core, DRAM channel, and page-table walker pool.
func TestObsChromeTraceStructure(t *testing.T) {
	t.Parallel()
	cfg, err := sim.NewWorkloadConfig(workloads.ScaleTiny, sim.ShareDWT, "ncf", "gpt2")
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	chrome := obs.NewChromeTrace(&trace)
	cfg.Obs = chrome
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := chrome.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := obs.ValidateChromeTrace(trace.Bytes())
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	wantProcs := []string{"core0 ncf", "core1 gpt2", "dram", "ptw core0", "ptw core1", "sim"}
	if got := strings.Join(sum.ProcessNames, ","); got != strings.Join(wantProcs, ",") {
		t.Errorf("processes = %v, want %v", sum.ProcessNames, wantProcs)
	}
	wantTracks := []string{"core0 ncf/tiles", "core1 gpt2/tiles", "sim/loop"}
	for ch := 0; ch < cfg.DRAM.Channels; ch++ {
		wantTracks = append(wantTracks, "dram/ch"+string(rune('0'+ch)))
	}
	for _, track := range wantTracks {
		found := false
		for _, n := range sum.ThreadNames {
			if n == track {
				found = true
			}
		}
		if !found {
			t.Errorf("missing track %q in %v", track, sum.ThreadNames)
		}
	}
	if sum.Events < 1000 {
		t.Errorf("suspiciously small trace: %d events", sum.Events)
	}
}

// TestObsRegistryMatchesResult cross-checks registry counters against
// the independently accumulated Result statistics.
func TestObsRegistryMatchesResult(t *testing.T) {
	cfg, err := sim.NewWorkloadConfig(workloads.ScaleTiny, sim.ShareDWT, "ncf", "gpt2")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Value("sim.global_cycles"); got != res.GlobalCycles {
		t.Errorf("sim.global_cycles = %d, result says %d", got, res.GlobalCycles)
	}
	if got := snap.Value("sim.runs"); got != 1 {
		t.Errorf("sim.runs = %d", got)
	}
	for i, c := range res.Cores {
		name := "mmu.walks.core" + string(rune('0'+i))
		if got := snap.Value(name); got != c.MMU.Walks {
			t.Errorf("%s = %d, result says %d", name, got, c.MMU.Walks)
		}
	}
	t.Logf("dram row hits ch0 = %d", snap.Value("dram.row_hits.ch0"))
}

// TestObsSnapshotDeterministic runs the same configuration twice into
// fresh registries and byte-compares the text exports.
func TestObsSnapshotDeterministic(t *testing.T) {
	export := func() string {
		cfg, err := sim.NewWorkloadConfig(workloads.ScaleTiny, sim.ShareDWT, "dlrm", "res")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Metrics = obs.NewRegistry()
		if _, err := sim.Run(cfg); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := cfg.Metrics.Snapshot().WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := export(), export()
	if a == "" || a != b {
		t.Errorf("snapshot export not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestObsLoopStats checks the registry's main-loop accounting: the
// processed cycles plus the cycles skipped between them cover the whole
// run.
func TestObsLoopStats(t *testing.T) {
	cfg, err := sim.NewWorkloadConfig(workloads.ScaleTiny, sim.Static, "ncf", "ncf")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = obs.NewRegistry()
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := cfg.Metrics.Snapshot()
	iters, skips, skipped := snap.Value("sim.loop_iters"), snap.Value("sim.skip_windows"), snap.Value("sim.skipped_cycles")
	if iters <= 0 {
		t.Errorf("loop iters = %d", iters)
	}
	if iters+skipped != res.GlobalCycles {
		t.Errorf("iters %d + skipped %d != global cycles %d", iters, skipped, res.GlobalCycles)
	}
	if skips == 0 || skipped == 0 {
		t.Errorf("event skipping inactive: windows=%d cycles=%d", skips, skipped)
	}
}
