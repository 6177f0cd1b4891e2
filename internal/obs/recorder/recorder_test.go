package recorder

import (
	"bytes"
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/obs"
)

func ev(k obs.Kind, cycle int64, core int32, opts ...func(*obs.Event)) obs.Event {
	e := obs.Event{Kind: k, Cycle: clock.Global(cycle), Core: core}
	for _, o := range opts {
		o(&e)
	}
	return e
}

func withUnit(u int32) func(*obs.Event) { return func(e *obs.Event) { e.Unit = u } }
func withA(a int64) func(*obs.Event)    { return func(e *obs.Event) { e.A = a } }
func withB(b int64) func(*obs.Event)    { return func(e *obs.Event) { e.B = b } }
func withStr(s string) func(*obs.Event) { return func(e *obs.Event) { e.Str = s } }

// feed emits a small plausible run prefix into any sink.
func feed(s obs.Sink) {
	s.Emit(ev(obs.KindRunStart, 0, -1, withA(2), withStr("+dwt")))
	s.Emit(ev(obs.KindCoreInfo, 0, 0, withStr("ncf")))
	s.Emit(ev(obs.KindCoreInfo, 0, 1, withStr("gpt2")))
	s.Emit(ev(obs.KindTileStart, 10, 0, withA(0), withB(0)))
	s.Emit(ev(obs.KindDRAMEnqueue, 12, 0, withUnit(0), withA(1)))
	s.Emit(ev(obs.KindDRAMIssue, 20, 0, withUnit(0), withA(0), withB(0)))
	s.Emit(ev(obs.KindWalkStart, 25, 1, withA(0x40), withB(1)))
	s.Emit(ev(obs.KindTileFinish, 30, 0, withA(0), withB(0)))
	s.Emit(ev(obs.KindWalkEnd, 40, 1, withA(0x40), withB(15)))
	s.Emit(ev(obs.KindRefresh, 50, -1, withUnit(1), withA(160), withB(0)))
}

func TestRoundTrip(t *testing.T) {
	r := New(2, 2, 16)
	feed(r)

	data := r.DumpBytes("unit-test")
	d, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if d.Reason != "unit-test" {
		t.Fatalf("reason = %q", d.Reason)
	}
	if d.Cores != 2 || d.Channels != 2 || d.Cap != 16 {
		t.Fatalf("layout = %d cores, %d channels, cap %d", d.Cores, d.Channels, d.Cap)
	}
	if d.LastCycle != 50 {
		t.Fatalf("last cycle = %d, want 50", d.LastCycle)
	}
	if got := d.CoreInfo; len(got) != 2 || got[0] != "ncf" || got[1] != "gpt2" {
		t.Fatalf("core info = %v", got)
	}
	if d.Events() != 10 {
		t.Fatalf("events = %d, want 10", d.Events())
	}
	if d.TotalDropped() != 0 {
		t.Fatalf("dropped = %d, want 0", d.TotalDropped())
	}

	// Every emitted event must survive the round trip bit-for-bit.
	merged := d.Merged()
	var probe []obs.Event
	feed(obs.Func(func(e obs.Event) { probe = append(probe, e) }))
	if len(merged) != len(probe) {
		t.Fatalf("merged %d events, emitted %d", len(merged), len(probe))
	}
	found := func(want obs.Event) bool {
		for _, got := range merged {
			if got == want {
				return true
			}
		}
		return false
	}
	for _, want := range probe {
		if !found(want) {
			t.Fatalf("event %+v lost in round trip", want)
		}
	}
}

func TestRingRouting(t *testing.T) {
	r := New(2, 2, 8)
	feed(r)

	d, err := Decode(r.DumpBytes(""))
	if err != nil {
		t.Fatal(err)
	}
	// Layout: ring 0 system, 1..2 cores, 3..4 channels.
	if n := len(d.Rings); n != 5 {
		t.Fatalf("ring count = %d, want 5", n)
	}
	// Run start is system; DRAM events route by Unit even with Core set.
	if got := len(d.Rings[0].Events); got != 1 {
		t.Fatalf("system ring has %d events, want 1 (run start)", got)
	}
	if got := len(d.Rings[3].Events); got != 2 {
		t.Fatalf("ch0 ring has %d events, want 2 (enqueue+issue)", got)
	}
	if got := len(d.Rings[4].Events); got != 1 {
		t.Fatalf("ch1 ring has %d events, want 1 (refresh)", got)
	}
	// Core 0: core info, tile start, tile finish. Core 1: info + walk pair.
	if got := len(d.Rings[1].Events); got != 3 {
		t.Fatalf("core0 ring has %d events, want 3", got)
	}
	if got := len(d.Rings[2].Events); got != 3 {
		t.Fatalf("core1 ring has %d events, want 3", got)
	}
}

func TestOutOfRangeFallsBackToSystemRing(t *testing.T) {
	r := New(1, 1, 8)
	r.Emit(ev(obs.KindTileStart, 1, 7))                // core 7 of a 1-core layout
	r.Emit(ev(obs.KindDRAMEnqueue, 2, 0, withUnit(9))) // channel 9 of 1
	d, err := Decode(r.DumpBytes(""))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Rings[0].Events); got != 2 {
		t.Fatalf("system ring has %d events, want 2 fallbacks", got)
	}
}

func TestEvictionKeepsNewestWindow(t *testing.T) {
	r := New(1, 0, 4)
	for i := int64(0); i < 10; i++ {
		r.Emit(ev(obs.KindTileStart, i, 0, withA(i)))
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	d, err := Decode(r.DumpBytes(""))
	if err != nil {
		t.Fatal(err)
	}
	events := d.Rings[1].Events
	if len(events) != 4 {
		t.Fatalf("window = %d events, want 4", len(events))
	}
	for i, e := range events {
		if want := int64(6 + i); e.A != want || e.Cycle.Int64() != want {
			t.Fatalf("window[%d] = %+v, want cycle/A = %d (oldest evicted first)", i, e, want)
		}
	}
	if d.LastCycle != 9 {
		t.Fatalf("last cycle = %d, want 9", d.LastCycle)
	}
}

func TestDumpDeterministic(t *testing.T) {
	a, b := New(2, 2, 16), New(2, 2, 16)
	feed(a)
	feed(b)
	if !bytes.Equal(a.DumpBytes("x"), b.DumpBytes("x")) {
		t.Fatal("identical event streams produced different dumps")
	}
}

func TestMergedIsDeterministicAndOrdered(t *testing.T) {
	r := New(2, 2, 16)
	feed(r)
	d, err := Decode(r.DumpBytes(""))
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := d.Merged(), d.Merged()
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("merge order unstable at %d", i)
		}
		if i > 0 && m1[i].Cycle < m1[i-1].Cycle {
			t.Fatalf("merge not cycle-ordered at %d: %d after %d", i, m1[i].Cycle, m1[i-1].Cycle)
		}
	}
}

func TestWriteChromeTraceValidatesMidWindow(t *testing.T) {
	r := New(2, 1, 8)
	// A window whose tile/walk starts were evicted: orphan finishes must
	// be dropped, and the still-open spans closed by a synthetic run end.
	r.Emit(ev(obs.KindCoreInfo, 0, 0, withStr("ncf")))
	r.Emit(ev(obs.KindTileFinish, 100, 0, withA(41), withB(3))) // orphan
	r.Emit(ev(obs.KindWalkEnd, 101, 1, withA(0x80), withB(12))) // orphan
	r.Emit(ev(obs.KindTileStart, 110, 0, withA(42), withB(3)))  // left open
	r.Emit(ev(obs.KindWalkStart, 115, 1, withA(0x99)))          // left open
	r.Emit(ev(obs.KindDRAMIssue, 120, 0, withUnit(0), withA(2)))

	d, err := Decode(r.DumpBytes("watchdog"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("replayed trace is invalid: %v\n%s", err, buf.String())
	}
	if sum.Events == 0 {
		t.Fatal("replayed trace is empty")
	}
	// The sticky core name must survive into the track metadata.
	foundName := false
	for _, n := range sum.ProcessNames {
		if n == "core0 ncf" {
			foundName = true
		}
	}
	if !foundName {
		t.Fatalf("core name not reseeded; processes = %v", sum.ProcessNames)
	}
}

func TestWriteChromeTraceFullRun(t *testing.T) {
	r := New(2, 2, 64)
	feed(r)
	r.Emit(ev(obs.KindRunEnd, 60, -1, withA(60), withB(6)))
	d, err := Decode(r.DumpBytes("on-demand"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

// TestWriteChromeTraceRunEndBeforeFinish replays a window holding a
// tile start, a run end and that tile's finish: the run end closes the
// tile, so the finish must not be written as an end without a begin.
func TestWriteChromeTraceRunEndBeforeFinish(t *testing.T) {
	r := New(1, 0, 8)
	r.Emit(ev(obs.KindTileStart, 10, 0, withA(1), withB(0)))
	r.Emit(ev(obs.KindRunEnd, 20, -1, withA(20)))
	r.Emit(ev(obs.KindTileFinish, 30, 0, withA(1), withB(0)))
	d, err := Decode(r.DumpBytes("on-demand"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("replayed trace is invalid: %v\n%s", err, buf.String())
	}
}

func TestSnapshotReplaysCounters(t *testing.T) {
	r := New(2, 2, 64)
	feed(r)
	snap := Decode1(t, r).Snapshot()
	for name, want := range map[string]int64{
		"npu.tiles_started.core0":  1,
		"npu.tiles_finished.core0": 1,
		"dram.enqueued.ch0":        1,
		"dram.cas_reads.ch0":       1,
		"dram.refreshes.ch1":       1,
		"mmu.walks.core1":          1,
		"sim.runs":                 1,
	} {
		if got := snap.Value(name); got != want {
			t.Fatalf("snapshot %s = %v, want %v", name, got, want)
		}
	}
}

// Decode1 decodes a recorder's current window or fails the test.
func Decode1(t *testing.T, r *Recorder) *Dump {
	t.Helper()
	d, err := Decode(r.DumpBytes(""))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a dump")); err == nil {
		t.Fatal("bad magic accepted")
	}
	r := New(1, 1, 8)
	feed(r)
	data := r.DumpBytes("x")
	if _, err := Decode(data[:len(data)-3]); err == nil {
		t.Fatal("truncated dump accepted")
	}
	if _, err := Decode(append(data, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
