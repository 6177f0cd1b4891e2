package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/obs"
	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/obs/recorder"
	"mnpusim/internal/serve/api"
)

func TestRunLogMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "req.log")
	if err := run([]string{"-mode", "log", "-workload", "ncf", "-out", out, "-limit", "100"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 100 {
		t.Fatalf("log has %d lines, want 100", len(lines))
	}
	// Each record: cycle, vaddr, core, class+kind.
	fields := strings.Fields(lines[0])
	if len(fields) != 4 || !strings.HasPrefix(fields[1], "0x") {
		t.Errorf("record format: %q", lines[0])
	}
}

func TestRunRejectsBadMode(t *testing.T) {
	if err := run([]string{"-mode", "weird"}); err == nil {
		t.Error("bad mode accepted")
	}
	if err := run([]string{"-mode", "rate", "-scale", "giga"}); err == nil {
		t.Error("bad scale accepted")
	}
	if err := run([]string{"-mode", "rate", "-workload", "nope"}); err == nil {
		t.Error("bad workload accepted")
	}
}

// TestObsRoundTrip writes a Chrome trace in rate mode, then validates
// it through the command's own validate mode.
func TestObsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	counters := filepath.Join(dir, "counters.txt")
	if err := run([]string{"-mode", "rate", "-workload", "ncf",
		"-obs", trace, "-obs-counters", counters}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-mode", "validate", "-in", trace}); err != nil {
		t.Fatalf("round-trip validation failed: %v", err)
	}
	ctr, err := os.ReadFile(counters)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ctr), "sim.runs 1\n") {
		t.Errorf("counters missing sim.runs:\n%s", ctr)
	}
}

func TestObsFlagRestrictions(t *testing.T) {
	if err := run([]string{"-mode", "bandwidth", "-obs", filepath.Join(t.TempDir(), "t.json")}); err == nil {
		t.Error("-obs accepted in bandwidth mode")
	}
	if err := run([]string{"-mode", "validate"}); err == nil {
		t.Error("validate without -in accepted")
	}
	if err := run([]string{"-mode", "validate", "-in", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("validate of missing file accepted")
	}
}

// captureStdout returns what fn prints to stdout, failing the test if
// fn returns an error.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = wr
	var buf bytes.Buffer
	copied := make(chan error, 1)
	go func() {
		_, err := io.Copy(&buf, rd)
		copied <- err
	}()
	runErr := fn()
	os.Stdout = stdout
	wr.Close()
	if err := <-copied; err != nil {
		t.Fatal(err)
	}
	rd.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return buf.String()
}

// checkLines fails the test for every line of want missing from out.
func checkLines(t *testing.T, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output lacks %q:\n%s", w, out)
		}
	}
}

// validFile fails the test unless path holds a valid Chrome trace.
func validFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(data); err != nil {
		t.Errorf("%s: %v", path, err)
	}
}

// TestSpansMode renders a distributed trace as GET /v1/traces/{id}
// serves it: the summary counts spans per service and reports the
// orphan and the store's drops, and the -obs timeline validates even
// with a control byte in a span attribute.
func TestSpansMode(t *testing.T) {
	dir := t.TempDir()
	view := api.TraceView{TraceID: "t1", Dropped: 2, Spans: []dtrace.Span{
		{TraceID: "t1", SpanID: "a", Name: "http POST /v1/jobs", Service: "mnpuserved", StartUnixNS: 1_000_000, DurNS: 4_000_000},
		{TraceID: "t1", SpanID: "b", ParentID: "a", Name: "queue_wait", Service: "mnpuserved", StartUnixNS: 1_500_000, DurNS: 500_000},
		{TraceID: "t1", SpanID: "c", ParentID: "a", Name: "sim_run", Service: "mnpuserved", StartUnixNS: 2_000_000, DurNS: 3_000_000,
			Attrs: map[string]string{"workloads": "ncf,gpt2\x01"}},
		{TraceID: "t1", SpanID: "d", ParentID: "gone", Name: "http GET /v1/jobs/j1", Service: "mnpuload", DurNS: 6_000_000},
	}}
	in := filepath.Join(dir, "trace-t1.json")
	data, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "spans.json")
	out := captureStdout(t, func() error { return run([]string{"-mode", "spans", "-in", in, "-obs", trace}) })
	checkLines(t, out,
		in+": trace t1: 4 spans, 2 service(s), 6.000 ms span\n",
		"  service mnpuload: 1 span(s)\n",
		"  service mnpuserved: 3 span(s)\n",
		"  1 orphan span(s) reference parents not in the trace (partial trace)\n",
		"  2 span(s) dropped by the span store's per-trace cap\n",
		"  trace:      "+trace+" (valid: 4 events, 2 processes, 4 tracks)\n",
	)
	validFile(t, trace)

	view.Spans = nil
	data, _ = json.Marshal(view)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-mode", "spans", "-in", in}); err == nil {
		t.Error("trace without spans accepted")
	}
}

// TestPostmortemMode renders a flight-recorder dump whose rings
// overflowed: a tile finish whose start was evicted must not unbalance
// the -obs timeline, and the counters replay the surviving window.
func TestPostmortemMode(t *testing.T) {
	dir := t.TempDir()
	rec := recorder.New(1, 1, 3)
	rec.Emit(obs.Event{Kind: obs.KindRunStart, Core: -1, A: 1, Str: "static"})
	rec.Emit(obs.Event{Kind: obs.KindCoreInfo, Core: 0, Str: "ncf"})
	for i := range 4 {
		c := clock.Global(10 * (i + 1))
		rec.Emit(obs.Event{Cycle: c, Kind: obs.KindTileStart, Core: 0, A: int64(i)})
		rec.Emit(obs.Event{Cycle: c + 1, Kind: obs.KindDRAMEnqueue, Core: 0, A: 1})
		rec.Emit(obs.Event{Cycle: c + 5, Kind: obs.KindTileFinish, Core: 0, A: int64(i)})
	}
	in := filepath.Join(dir, "job.dump")
	if err := os.WriteFile(in, rec.DumpBytes("on-demand"), 0o644); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "window.json")
	counters := filepath.Join(dir, "window.txt")
	out := captureStdout(t, func() error {
		return run([]string{"-mode", "postmortem", "-in", in, "-obs", trace, "-obs-counters", counters})
	})
	checkLines(t, out,
		"  reason:     on-demand\n",
		"  window:     7 events recorded, 7 evicted, last cycle 45\n",
		"  layout:     1 cores, 1 channels, 3 events/ring\n",
		"  core 0:     ncf\n",
		"  trace:      "+trace+" (valid: ",
		"  counters:   "+counters+"\n",
	)
	validFile(t, trace)
	ctr, err := os.ReadFile(counters)
	if err != nil {
		t.Fatal(err)
	}
	checkLines(t, string(ctr), "dram.enqueued.ch0 3\n", "npu.tiles_finished.core0 2\n", "npu.tiles_started.core0 1\n")

	if err := os.WriteFile(in, []byte("not a dump"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-mode", "postmortem", "-in", in}); err == nil {
		t.Error("garbage dump accepted")
	}
}
