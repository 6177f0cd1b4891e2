package dtrace

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"mnpusim/internal/obs"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
		SpanID:  "00f067aa0ba902b7",
		Sampled: true,
	}
	hdr := sc.Traceparent()
	if hdr != "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01" {
		t.Fatalf("traceparent = %q", hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
	unsampled := SpanContext{TraceID: sc.TraceID, SpanID: sc.SpanID}
	got, ok = ParseTraceparent(unsampled.Traceparent())
	if !ok || got.Sampled {
		t.Fatalf("unsampled round trip: got %+v ok=%v", got, ok)
	}
}

// TestParseTraceparentSampledFlag checks Sampled is bit 0 of the
// flags byte the two hex digits encode, not of the digit's ASCII code.
func TestParseTraceparentSampledFlag(t *testing.T) {
	const prefix = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-"
	for flags, want := range map[string]bool{
		"00": false, "01": true, "02": false, "09": true,
		"0a": false, "0b": true, "fe": false, "ff": true,
	} {
		sc, ok := ParseTraceparent(prefix + flags)
		if !ok {
			t.Errorf("flags %s: rejected", flags)
			continue
		}
		if sc.Sampled != want {
			t.Errorf("flags %s: Sampled = %v, want %v", flags, sc.Sampled, want)
		}
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // unknown version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span ID
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // bad flags
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad separator
	}
	for _, v := range bad {
		if sc, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted: %+v", v, sc)
		}
	}
}

func TestTracerIDsUniqueAndValid(t *testing.T) {
	tr := NewTracer("svc", NewStore(0, 0))
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		id := tr.NewSpanID()
		if !isHex(id, 16) || id == zeroSpanID {
			t.Fatalf("bad span ID %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate span ID %q after %d draws", id, i)
		}
		seen[id] = true
	}
	tid := tr.NewTraceID()
	if !isHex(tid, 32) || tid == zeroTraceID {
		t.Fatalf("bad trace ID %q", tid)
	}
}

func TestNilTracerAndActiveAreNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Service() != "" || tr.NewRequestID() != "" {
		t.Fatal("nil tracer leaked values")
	}
	a := tr.Start(SpanContext{}, "x")
	if a != nil {
		t.Fatal("nil tracer started a span")
	}
	// All Active methods must be nil-safe.
	a.SetAttr("k", "v")
	a.SetStart(1)
	a.End()
	if sc := a.Context(); sc.Valid() {
		t.Fatalf("nil active produced valid context %+v", sc)
	}
}

func TestStartChildRequiresParent(t *testing.T) {
	tr := NewTracer("svc", NewStore(0, 0))
	if a := tr.StartChild(SpanContext{}, "x"); a != nil {
		t.Fatal("StartChild started a root span under an invalid parent")
	}
	root := tr.Start(SpanContext{}, "root")
	child := tr.StartChild(root.Context(), "child")
	if child == nil {
		t.Fatal("StartChild refused a valid parent")
	}
	if child.span.TraceID != root.span.TraceID || child.span.ParentID != root.span.SpanID {
		t.Fatalf("child edges wrong: %+v vs root %+v", child.span, root.span)
	}
}

func TestStoreRecordsAndBounds(t *testing.T) {
	st := NewStore(2, 3)
	tr := NewTracer("svc", st)
	root := tr.Start(SpanContext{}, "root")
	traceID := root.Context().TraceID
	for i := 0; i < 5; i++ {
		c := tr.Start(root.Context(), "child")
		c.End()
	}
	root.End()
	spans, dropped := st.Get(traceID)
	if len(spans) != 3 || dropped != 3 {
		t.Fatalf("got %d spans, %d dropped; want 3 kept, 3 dropped", len(spans), dropped)
	}

	// Two more traces; the oldest (traceID) must be evicted.
	t2 := tr.Start(SpanContext{}, "t2")
	t2.End()
	t3 := tr.Start(SpanContext{}, "t3")
	t3.End()
	if st.Len() != 2 {
		t.Fatalf("store retains %d traces, want 2", st.Len())
	}
	if spans, _ := st.Get(traceID); spans != nil {
		t.Fatalf("oldest trace not evicted: %d spans remain", len(spans))
	}
	if spans, _ := st.Get(t3.Context().TraceID); len(spans) != 1 {
		t.Fatalf("newest trace missing: %v", spans)
	}
}

func TestSpanTimingAndAttrs(t *testing.T) {
	st := NewStore(0, 0)
	tr := NewTracer("svc", st)
	a := tr.Start(SpanContext{}, "op")
	a.SetAttr("tier", "memory")
	a.End()
	a.End() // double End is a no-op
	spans, _ := st.Get(a.Context().TraceID)
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.DurNS < 0 || sp.StartUnixNS <= 0 {
		t.Fatalf("bad timing: start=%d dur=%d", sp.StartUnixNS, sp.DurNS)
	}
	if sp.Attrs["tier"] != "memory" || sp.Service != "svc" || sp.Name != "op" {
		t.Fatalf("span fields wrong: %+v", sp)
	}
}

func TestContextCarriage(t *testing.T) {
	ctx := context.Background()
	if _, ok := From(ctx); ok {
		t.Fatal("empty context carried a span")
	}
	sc := SpanContext{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8), Sampled: true}
	got, ok := From(With(ctx, sc))
	if !ok || got != sc {
		t.Fatalf("carried %+v ok=%v, want %+v", got, ok, sc)
	}
	// Invalid contexts are not attached.
	if _, ok := From(With(ctx, SpanContext{})); ok {
		t.Fatal("invalid span context was attached")
	}
}

func TestWriteChromeTraceValidates(t *testing.T) {
	st := NewStore(0, 0)
	trA := NewTracer("http://a", st)
	trB := NewTracer("http://b", st)
	root := trA.Start(SpanContext{}, "http POST /v1/sweeps")
	sweep := trA.StartChild(root.Context(), "sweep")
	unit := trA.StartChild(sweep.Context(), "unit ncf+gpt2 L2")
	remote := trB.StartChild(unit.Context(), "http POST /v1/jobs")
	cache := trB.StartChild(remote.Context(), "cache_lookup")
	cache.SetAttr("tier", "miss")
	cache.End()
	sim := trB.StartChild(remote.Context(), "sim_run")
	sim.SetAttr("fingerprint", "deadbeef")
	sim.End()
	remote.End()
	unit.End()
	sweep.End()
	root.End()

	spans, dropped := st.Get(root.Context().TraceID)
	if dropped != 0 || len(spans) != 6 {
		t.Fatalf("got %d spans (%d dropped), want 6", len(spans), dropped)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("rendered trace invalid: %v\n%s", err, buf.String())
	}
	if sum.Events != 6 {
		t.Fatalf("validated %d events, want 6", sum.Events)
	}
	wantProcs := []string{"http://a", "http://b"}
	if len(sum.ProcessNames) != 2 || sum.ProcessNames[0] != wantProcs[0] || sum.ProcessNames[1] != wantProcs[1] {
		t.Fatalf("process names %v, want %v", sum.ProcessNames, wantProcs)
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	if err := WriteChromeTrace(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("empty span list rendered without error")
	}
}
