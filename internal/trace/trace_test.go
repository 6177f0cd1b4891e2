package trace

import (
	"strings"
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/mem"
	"mnpusim/internal/obs"
)

func mustRate(t *testing.T, window int64) *RateRecorder {
	t.Helper()
	r, err := NewRateRecorder(window)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRateRecorderWindows(t *testing.T) {
	r := mustRate(t, 100)
	r.Add(0, 1)
	r.Add(99, 1)
	r.Add(100, 1)
	r.Add(250, 5)
	rates := r.Rates()
	if len(rates) != 3 {
		t.Fatalf("windows = %d", len(rates))
	}
	if rates[0] != 0.02 || rates[1] != 0.01 || rates[2] != 0.05 {
		t.Errorf("rates = %v", rates)
	}
	if r.Window() != 100 {
		t.Errorf("window = %d", r.Window())
	}
}

func TestRateRecorderIgnoresNegativeCycles(t *testing.T) {
	r := mustRate(t, 10)
	r.Add(-1, 1)
	if len(r.Rates()) != 0 {
		t.Error("negative cycle recorded")
	}
}

func TestRecorderConstructorErrors(t *testing.T) {
	if _, err := NewRateRecorder(0); err == nil {
		t.Error("NewRateRecorder(0) should error")
	}
	if _, err := NewRateRecorder(-5); err == nil {
		t.Error("NewRateRecorder(-5) should error")
	}
	if _, err := NewBandwidthRecorder(2, 0); err == nil {
		t.Error("NewBandwidthRecorder window 0 should error")
	}
	if _, err := NewBandwidthRecorder(0, 100); err == nil {
		t.Error("NewBandwidthRecorder cores 0 should error")
	}
}

func TestMovingAverageSmooths(t *testing.T) {
	r := mustRate(t, 10)
	r.Add(0, 100) // spike in window 0
	r.Add(35, 0)  // extend to 4 windows
	ma := r.MovingAverage(2)
	if len(ma) != 4 {
		t.Fatalf("ma = %v", ma)
	}
	if ma[0] != 10 { // only one window so far
		t.Errorf("ma[0] = %v", ma[0])
	}
	if ma[1] != 5 { // (10+0)/2
		t.Errorf("ma[1] = %v", ma[1])
	}
	if ma[2] != 0 {
		t.Errorf("ma[2] = %v", ma[2])
	}
	// k<=1 returns raw rates.
	raw := r.MovingAverage(1)
	if raw[0] != 10 {
		t.Errorf("raw[0] = %v", raw[0])
	}
}

func TestBandwidthRecorder(t *testing.T) {
	b, err := NewBandwidthRecorder(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	transfer := func(cycle int64, core, bytes int) {
		b.Emit(obs.Event{Cycle: clock.Global(cycle), Kind: obs.KindTransfer, Core: int32(core), A: int64(bytes), B: int64(mem.Data)})
	}
	transfer(0, 0, 64)
	transfer(50, 0, 64)
	transfer(150, 1, 128)
	transfer(10, 5, 64)          // out-of-range core ignored
	transfer(-1, 0, 64)          // negative cycle ignored
	u0 := b.Utilization(0, 1.28) // peak 1.28 B/cyc -> 128 B per window
	if len(u0) != 1 || u0[0] != 1.0 {
		t.Errorf("core0 util = %v", u0)
	}
	u1 := b.Utilization(1, 1.28)
	if len(u1) != 2 || u1[1] != 1.0 || u1[0] != 0 {
		t.Errorf("core1 util = %v", u1)
	}
	if b.Utilization(7, 1) != nil {
		t.Error("bad core should return nil")
	}
}

// TestRecordersConsumeProbeStream drives both recorders through their
// obs.Sink faces and checks they filter to their own signal.
func TestRecordersConsumeProbeStream(t *testing.T) {
	r := mustRate(t, 100)
	b, err := NewBandwidthRecorder(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	var sink obs.Sink = obs.Tee(r, b)
	sink.Emit(obs.Event{Cycle: 10, Kind: obs.KindDMAIssue, Core: 0, A: 1})
	sink.Emit(obs.Event{Cycle: 20, Kind: obs.KindDMAIssue, Core: 0, A: 2})
	sink.Emit(obs.Event{Cycle: 30, Kind: obs.KindTransfer, Core: 1, Unit: 0, A: 128, B: int64(mem.Data)})
	sink.Emit(obs.Event{Cycle: 40, Kind: obs.KindTLBHit, Core: 0}) // ignored by both
	if got := r.Rates(); len(got) != 1 || got[0] != 0.02 {
		t.Errorf("rates = %v, want [0.02]", got)
	}
	if got := b.Utilization(1, 1.28); len(got) != 1 || got[0] != 1.0 {
		t.Errorf("bandwidth util = %v, want [1]", got)
	}
	if got := b.Utilization(0, 1.28); len(got) != 0 {
		t.Errorf("core0 should have no windows, got %v", got)
	}
}

// TestRequestLogFormat drives the log as a probe sink: one record per
// DMA issue, in the artifact's format, with the direction from Unit.
func TestRequestLogFormat(t *testing.T) {
	var sb strings.Builder
	l := NewRequestLog(&sb, 10)
	l.Emit(obs.Event{Cycle: 42, Kind: obs.KindDMAIssue, Core: 2, A: 1, B: 0x1000})
	l.Emit(obs.Event{Cycle: 43, Kind: obs.KindDMAIssue, Core: 0, Unit: 1, A: 2, B: 0xfffff040})
	want := "42 0x1000 2 DR\n43 0xfffff040 0 DW\n"
	if sb.String() != want {
		t.Errorf("log = %q, want %q", sb.String(), want)
	}
	if l.Lines() != 2 {
		t.Errorf("lines = %d", l.Lines())
	}
}

// TestRequestLogSink checks that the log ignores every other event
// kind and writes nothing past its limit.
func TestRequestLogSink(t *testing.T) {
	var sb strings.Builder
	l := NewRequestLog(&sb, 2)
	for k := obs.Kind(0); k.String() != "unknown"; k++ {
		if k != obs.KindDMAIssue {
			l.Emit(obs.Event{Cycle: 1, Kind: k, Core: 0, Unit: 1, A: 1, B: 0x40})
		}
	}
	if sb.Len() != 0 || l.Lines() != 0 {
		t.Fatalf("other kinds wrote %d records: %q", l.Lines(), sb.String())
	}
	for i := range 5 {
		l.Emit(obs.Event{Cycle: clock.Global(i), Kind: obs.KindDMAIssue, B: int64(i) * 64})
	}
	if want := "0 0x0 0 DR\n1 0x40 0 DR\n"; sb.String() != want || l.Lines() != 2 {
		t.Errorf("log = %q (%d lines), want %q: the limit is 2", sb.String(), l.Lines(), want)
	}
}
