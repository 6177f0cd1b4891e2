package obs

import (
	"slices"
	"strings"
	"testing"
)

// emitSyntheticRun drives a ChromeTrace through a small but complete
// event stream covering every timeline-visible kind.
func emitSyntheticRun(t *ChromeTrace) {
	t.Emit(Event{Cycle: 0, Kind: KindRunStart, Core: -1, A: 2, Str: "+dwt"})
	t.Emit(Event{Cycle: 0, Kind: KindCoreInfo, Core: 0, Str: "ncf"})
	t.Emit(Event{Cycle: 0, Kind: KindCoreInfo, Core: 1, Str: "gpt2"})
	t.Emit(Event{Cycle: 5, Kind: KindDMAIssue, Core: 0, A: 1})
	t.Emit(Event{Cycle: 6, Kind: KindDRAMEnqueue, Core: 0, Unit: 0, A: 1})
	t.Emit(Event{Cycle: 8, Kind: KindRowMiss, Unit: 0})
	t.Emit(Event{Cycle: 12, Kind: KindDRAMIssue, Unit: 0, A: 0})
	t.Emit(Event{Cycle: 14, Kind: KindRowHit, Unit: 0})
	t.Emit(Event{Cycle: 15, Kind: KindRowConflict, Unit: 0})
	t.Emit(Event{Cycle: 16, Kind: KindRefresh, Unit: 0, A: 100, B: 0})
	t.Emit(Event{Cycle: 18, Kind: KindDMAComplete, Core: 0, A: 0})
	t.Emit(Event{Cycle: 20, Kind: KindTileStart, Core: 0, A: 0, B: 0})
	t.Emit(Event{Cycle: 21, Kind: KindMSHRAlloc, Core: 1, A: 1})
	t.Emit(Event{Cycle: 22, Kind: KindWalkStart, Core: 1, A: 0x7f000, B: 1})
	t.Emit(Event{Cycle: 52, Kind: KindWalkEnd, Core: 1, A: 0x7f000, B: 30})
	t.Emit(Event{Cycle: 52, Kind: KindMSHRFree, Core: 1, A: 0})
	t.Emit(Event{Cycle: 60, Kind: KindSPMSwap, Core: 0, A: 1})
	t.Emit(Event{Cycle: 70, Kind: KindTileFinish, Core: 0, A: 0, B: 0})
	t.Emit(Event{Cycle: 80, Kind: KindSkipWindow, Core: -1, A: 40})
	t.Emit(Event{Cycle: 120, Kind: KindPhase, Core: 0, Str: "first-inference done"})
	t.Emit(Event{Cycle: 130, Kind: KindIterDone, Core: 0, A: 1})
	t.Emit(Event{Cycle: 150, Kind: KindRunEnd, Core: -1, A: 150, B: 90})
}

func TestChromeTraceValidates(t *testing.T) {
	var sb strings.Builder
	ct := NewChromeTrace(&sb)
	emitSyntheticRun(ct)
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateChromeTrace([]byte(sb.String()))
	if err != nil {
		t.Fatalf("trace invalid: %v\n%s", err, sb.String())
	}
	wantProcs := []string{"core0 ncf", "core1 gpt2", "dram", "ptw core1", "sim"}
	if strings.Join(sum.ProcessNames, ",") != strings.Join(wantProcs, ",") {
		t.Errorf("processes = %v, want %v", sum.ProcessNames, wantProcs)
	}
	for _, track := range []string{"core0 ncf/tiles", "core0 ncf/dma", "dram/ch0", "ptw core1/walks", "sim/loop"} {
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
	if sum.Events == 0 {
		t.Error("no events recorded")
	}
}

// TestChromeTraceClosesCutOffSpans checks tiles and walks still open
// when the simulation stops (a co-runner cut off mid-iteration) are
// closed at the run-end cycle, keeping the trace balanced.
func TestChromeTraceClosesCutOffSpans(t *testing.T) {
	var sb strings.Builder
	ct := NewChromeTrace(&sb)
	ct.Emit(Event{Cycle: 0, Kind: KindRunStart, Core: -1, A: 2, Str: "static"})
	ct.Emit(Event{Cycle: 10, Kind: KindTileStart, Core: 0, A: 3, B: 1})
	ct.Emit(Event{Cycle: 12, Kind: KindWalkStart, Core: 0, A: 0x10, B: 0})
	ct.Emit(Event{Cycle: 14, Kind: KindWalkStart, Core: 1, A: 0x20, B: 1})
	ct.Emit(Event{Cycle: 50, Kind: KindRunEnd, Core: -1, A: 50, B: 40})
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChromeTrace([]byte(sb.String())); err != nil {
		t.Errorf("cut-off spans left trace unbalanced: %v\n%s", err, sb.String())
	}
}

func TestChromeTraceEmptyRunIsValid(t *testing.T) {
	var sb strings.Builder
	ct := NewChromeTrace(&sb)
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChromeTrace([]byte(sb.String())); err != nil {
		t.Errorf("empty trace invalid: %v\n%s", err, sb.String())
	}
}

func TestValidateRejectsMalformedTraces(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"not json", `{"traceEvents":[`, "not valid JSON"},
		{"missing ts", `{"traceEvents":[{"ph":"i","name":"x","pid":1,"tid":1}]}`, "missing ts"},
		{"unknown phase", `{"traceEvents":[{"ph":"Z","name":"x","pid":1,"tid":1,"ts":0}]}`, "unknown phase"},
		{"ts regression", `{"traceEvents":[
			{"ph":"i","s":"t","name":"a","pid":1,"tid":1,"ts":10},
			{"ph":"i","s":"t","name":"b","pid":1,"tid":1,"ts":5}]}`, "ts 5 < previous 10"},
		{"E without B", `{"traceEvents":[{"ph":"E","pid":1,"tid":1,"ts":0}]}`, "E without matching B"},
		{"unbalanced B", `{"traceEvents":[{"ph":"B","name":"x","pid":1,"tid":1,"ts":0}]}`, "unbalanced B/E"},
		{"X without dur", `{"traceEvents":[{"ph":"X","name":"x","pid":1,"tid":1,"ts":0}]}`, "non-negative dur"},
		{"async end without begin", `{"traceEvents":[{"ph":"e","cat":"w","id":"0x1","pid":1,"tid":1,"ts":0}]}`, "async end without begin"},
		{"bad metadata", `{"traceEvents":[{"ph":"M","name":"process_name","pid":1,"args":{}}]}`, "without args.name"},
	}
	for _, c := range cases {
		if _, err := ValidateChromeTrace([]byte(c.data)); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestValidateAllowsIndependentTracks checks ts monotonicity is
// enforced per track, not globally: a later record on another track may
// have a smaller timestamp.
func TestValidateAllowsIndependentTracks(t *testing.T) {
	data := `{"traceEvents":[
		{"ph":"i","s":"t","name":"a","pid":1,"tid":1,"ts":100},
		{"ph":"i","s":"t","name":"b","pid":2,"tid":1,"ts":5},
		{"ph":"C","name":"q","pid":1,"ts":50,"args":{"v":1}}]}`
	if _, err := ValidateChromeTrace([]byte(data)); err != nil {
		t.Errorf("independent tracks rejected: %v", err)
	}
}

// TestChromeTraceEncodesControlBytes writes a core name and a span
// attribute holding a control byte. Every string must be encoded as
// JSON: %q's \x01 escape is not JSON, and the validator rejects it.
func TestChromeTraceEncodesControlBytes(t *testing.T) {
	var sb strings.Builder
	ct := NewChromeTrace(&sb)
	ct.Emit(Event{Cycle: 0, Kind: KindRunStart, Core: -1, A: 1, Str: "static"})
	ct.Emit(Event{Cycle: 0, Kind: KindCoreInfo, Core: 0, Str: "net\x01\"x\"\\"})
	ct.NameProcess(7, "svc")
	ct.NameThread(7, 1, "http")
	ct.Complete("http GET /v1/jobs", 7, 1, 0, 5, map[string]string{"note": "a\x01b\xff"})
	ct.Emit(Event{Cycle: 9, Kind: KindRunEnd, Core: -1, A: 9})
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateChromeTrace([]byte(sb.String()))
	if err != nil {
		t.Fatalf("trace invalid: %v\n%s", err, sb.String())
	}
	if want := "core0 net\x01\"x\"\\"; !slices.Contains(sum.ProcessNames, want) {
		t.Errorf("processes = %q, want one named %q", sum.ProcessNames, want)
	}
	if !strings.Contains(sb.String(), `"args":{"note":"a\u0001b\ufffd"}`) {
		t.Errorf("span attribute not JSON-encoded:\n%s", sb.String())
	}
}
