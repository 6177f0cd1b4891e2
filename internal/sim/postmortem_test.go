package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"mnpusim/internal/obs"
	"mnpusim/internal/obs/hostprof"
	"mnpusim/internal/obs/recorder"
	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

// runJSON executes cfg and returns the canonical JSON result bytes —
// the same serialization mnpusim -json and the serve layer compare.
func runJSON(t *testing.T, cfg sim.Config) []byte {
	t.Helper()
	return loopJSON(t, sim.Loops[1], cfg)
}

// loopJSON is runJSON under the given main loop.
func loopJSON(t *testing.T, l sim.Loop, cfg sim.Config) []byte {
	t.Helper()
	res, err := l.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestHostProfDoesNotPerturbResults is the hostprof non-perturbation
// contract: attaching the profiler (and a metrics registry for it to
// publish into) must leave the serialized result byte-identical to a
// bare run, under the event kernel and the tick reference.
func TestHostProfDoesNotPerturbResults(t *testing.T) {
	t.Parallel()
	base, err := sim.NewWorkloadConfig(workloads.ScaleTiny, sim.ShareDWT, "ncf", "gpt2")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range sim.Loops {
		t.Run(l.Name, func(t *testing.T) {
			t.Parallel()
			bare := loopJSON(t, l, base)

			profiled := base
			profiled.HostProf = hostprof.New()
			profiled.Metrics = obs.NewRegistry()
			withProf := loopJSON(t, l, profiled)

			if !bytes.Equal(bare, withProf) {
				t.Errorf("hostprof perturbed the result:\nbare:     %s\nprofiled: %s", bare, withProf)
			}
			if profiled.HostProf.NS(hostprof.SecRun) <= 0 {
				t.Error("profiler attached but recorded no run time")
			}
			if got := profiled.Metrics.Snapshot().Value("sim.host_ns.component.run"); got <= 0 {
				t.Errorf("sim.host_ns.component.run = %d, want > 0", got)
			}
		})
	}
}

// TestHostProfNotPublishedWithoutOptIn: a registry alone must not grow
// wall-clock metrics — host_ns counters appear only when a profiler is
// explicitly attached, keeping registry snapshots deterministic by
// default.
func TestHostProfNotPublishedWithoutOptIn(t *testing.T) {
	cfg, err := sim.NewWorkloadConfig(workloads.ScaleTiny, sim.Static, "ncf")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = obs.NewRegistry()
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, m := range cfg.Metrics.Snapshot() {
		if len(m.Name) >= 11 && m.Name[:11] == "sim.host_ns" {
			t.Fatalf("host_ns metric %q published without a profiler attached", m.Name)
		}
	}
}

// TestRecorderDoesNotPerturbResults: the always-on flight recorder tees
// behind the probe stream without changing the serialized result, and
// two identical runs produce byte-identical dumps (the determinism
// suite's contract extended to the post-mortem layer).
func TestRecorderDoesNotPerturbResults(t *testing.T) {
	t.Parallel()
	base, err := sim.NewWorkloadConfig(workloads.ScaleTiny, sim.ShareDWT, "ncf", "gpt2")
	if err != nil {
		t.Fatal(err)
	}
	bare := runJSON(t, base)

	record := func() ([]byte, []byte) {
		rec := recorder.New(base.Cores(), base.DRAM.Channels, 512)
		cfg := base
		cfg.Obs = rec
		cfg.HostProf = hostprof.New()
		cfg.Metrics = obs.NewRegistry()
		return runJSON(t, cfg), rec.DumpBytes("determinism-test")
	}
	js1, dump1 := record()
	js2, dump2 := record()

	if !bytes.Equal(bare, js1) {
		t.Errorf("recorder+hostprof perturbed the result:\nbare:     %s\nrecorded: %s", bare, js1)
	}
	if !bytes.Equal(js1, js2) {
		t.Error("repeated recorded runs diverged")
	}
	if !bytes.Equal(dump1, dump2) {
		t.Error("flight-recorder dumps differ across identical runs")
	}

	d, err := recorder.Decode(dump1)
	if err != nil {
		t.Fatalf("dump does not decode: %v", err)
	}
	if d.Events() == 0 {
		t.Fatal("recorder captured no events")
	}
	var trace bytes.Buffer
	if err := d.WriteChromeTrace(&trace); err != nil {
		t.Fatalf("postmortem replay failed: %v", err)
	}
	if _, err := obs.ValidateChromeTrace(trace.Bytes()); err != nil {
		t.Fatalf("postmortem trace invalid: %v", err)
	}
	// The run-end event is the newest system event and can never have
	// been evicted; its replay carries the run's final cycle count.
	if d.Snapshot().Value("sim.global_cycles") <= 0 {
		t.Error("replayed window lost the run-end event")
	}
}
