package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/serve/client"
	"mnpusim/internal/sim"
)

// testRoot is a fixed, sampled W3C trace context (the traceparent
// spec's own example IDs) used as the incoming parent in these tests.
func testRoot() dtrace.SpanContext {
	return dtrace.SpanContext{
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
		SpanID:  "00f067aa0ba902b7",
		Sampled: true,
	}
}

// spanIndex maps span IDs to the spans of one trace.
type spanIndex struct {
	spans []dtrace.Span
	byID  map[string]dtrace.Span
}

func indexSpans(t *testing.T, spans []dtrace.Span, wantTrace string) spanIndex {
	t.Helper()
	idx := spanIndex{spans: spans, byID: map[string]dtrace.Span{}}
	for _, sp := range spans {
		if sp.TraceID != wantTrace {
			t.Fatalf("span %q has trace ID %s, want %s", sp.Name, sp.TraceID, wantTrace)
		}
		if sp.Service != "mnpuserved" {
			t.Errorf("span %q has service %q, want mnpuserved", sp.Name, sp.Service)
		}
		idx.byID[sp.SpanID] = sp
	}
	return idx
}

// find returns the unique span whose name starts with prefix.
func (idx spanIndex) find(t *testing.T, prefix string) dtrace.Span {
	t.Helper()
	var found []dtrace.Span
	for _, sp := range idx.spans {
		if strings.HasPrefix(sp.Name, prefix) {
			found = append(found, sp)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d spans named %q*, want 1 (have %v)", len(found), prefix, idx.spans)
	}
	return found[0]
}

// tracedServer starts a stub server behind httptest and returns a
// client whose requests carry testRoot as their traceparent.
func tracedServer(t *testing.T, cfg Config, stub func(context.Context, sim.Config) (sim.Result, error)) (*client.Client, context.Context) {
	t.Helper()
	s := newStubServer(t, cfg, stub)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL), dtrace.With(context.Background(), testRoot())
}

// TestTraceparentParentsJobSpans submits a job under an incoming
// traceparent and checks the daemon's spans: the http span parents on
// the incoming span; the cache lookup, queue wait and simulation run
// parent on the http span; and sim_run carries the config fingerprint.
func TestTraceparentParentsJobSpans(t *testing.T) {
	cl, ctx := tracedServer(t, Config{Workers: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		return fakeResult(7), nil
	})
	spec := ncfSpec()
	_, key, err := resolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	v, err := cl.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if final, err := cl.WaitJob(ctx, v.ID, 2*time.Millisecond); err != nil || final.Status != StatusDone {
		t.Fatalf("job: %v %v", final.Status, err)
	}

	root := testRoot()
	view, err := cl.Trace(ctx, root.TraceID, false)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	idx := indexSpans(t, view.Spans, root.TraceID)
	httpSpan := idx.find(t, "http POST /v1/jobs")
	if httpSpan.ParentID != root.SpanID {
		t.Errorf("http span parent = %q, want incoming traceparent span %q", httpSpan.ParentID, root.SpanID)
	}
	for _, name := range []string{"cache_lookup", "queue_wait", "sim_run"} {
		if sp := idx.find(t, name); sp.ParentID != httpSpan.SpanID {
			t.Errorf("%s span parent = %q, want http span %q", name, sp.ParentID, httpSpan.SpanID)
		}
	}
	if sr := idx.find(t, "sim_run"); sr.Attrs["fingerprint"] != key {
		t.Errorf("sim_run fingerprint = %q, want job key %q", sr.Attrs["fingerprint"], key)
	}
}

// TestTraceSweepFanOut drives a traced sweep and checks its trace: one
// trace ID, the http span parenting the sweep-coordination span, which
// parents one unit span per expanded unit, one sim_run per unit, and
// every parent edge resolving.
func TestTraceSweepFanOut(t *testing.T) {
	cl, ctx := tracedServer(t, Config{Workers: 2}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		res := sim.Result{GlobalCycles: 200}
		for i := 0; i < c.Cores(); i++ {
			res.Cores = append(res.Cores, sim.CoreResult{Net: "stub", Cycles: int64(100 + 10*i)})
		}
		return res, nil
	})
	sv, err := cl.SubmitSweep(ctx, SweepSpec{
		Cores: 2, Workloads: []string{"ncf", "gpt2", "alex"}, Sharing: []string{"static"},
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitSweep(ctx, sv.ID, 5*time.Millisecond)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("sweep: %v %v (%s)", final.Status, err, final.Error)
	}
	// 6 mixes (pairs with repetition) x 1 level + 3 ideal baselines.
	if final.Total != 9 {
		t.Fatalf("sweep ran %d units, want 9", final.Total)
	}

	root := testRoot()
	view, err := cl.Trace(ctx, root.TraceID, false)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	idx := indexSpans(t, view.Spans, root.TraceID)
	httpSpan := idx.find(t, "http POST /v1/sweeps")
	if httpSpan.ParentID != root.SpanID {
		t.Errorf("sweep http span parent = %q, want %q", httpSpan.ParentID, root.SpanID)
	}
	sweepSpan := idx.find(t, "sweep coordinate")
	if sweepSpan.ParentID != httpSpan.SpanID {
		t.Errorf("sweep span parent = %q, want http span %q", sweepSpan.ParentID, httpSpan.SpanID)
	}
	if sweepSpan.Attrs["status"] != string(StatusDone) {
		t.Errorf("sweep span status attr = %q, want done", sweepSpan.Attrs["status"])
	}
	units, sims := 0, 0
	for _, sp := range view.Spans {
		switch {
		case strings.HasPrefix(sp.Name, "unit "):
			units++
			if sp.ParentID != sweepSpan.SpanID {
				t.Errorf("unit span %q parent = %q, want sweep span %q", sp.Name, sp.ParentID, sweepSpan.SpanID)
			}
		case sp.Name == "sim_run":
			sims++
		}
		if sp.ParentID != "" && sp.ParentID != root.SpanID {
			if _, ok := idx.byID[sp.ParentID]; !ok {
				t.Errorf("span %q references missing parent %s", sp.Name, sp.ParentID)
			}
		}
	}
	if units != 9 {
		t.Errorf("unit spans = %d, want 9", units)
	}
	if sims != 9 {
		t.Errorf("sim_run spans = %d, want 9 (all units distinct, no cache hits)", sims)
	}
}

// TestTracingOffByteIdenticalResults is the non-perturbation proof:
// the same real simulation, run through a traced daemon and a
// tracing-disabled daemon, produces byte-identical result payloads —
// tracing observes host time only and never touches simulated state.
func TestTracingOffByteIdenticalResults(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	run := func(cfg Config) []byte {
		t.Helper()
		s := mustNew(t, cfg)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		ctx := dtrace.With(context.Background(), testRoot())
		cl := client.New(ts.URL)
		v, err := cl.SubmitJob(ctx, ncfSpec())
		if err != nil {
			t.Fatal(err)
		}
		if v, err = cl.WaitJob(ctx, v.ID, 5*time.Millisecond); err != nil || v.Status != StatusDone {
			t.Fatalf("job: %v %v (%s)", v.Status, err, v.Error)
		}
		b, err := cl.JobResult(ctx, v.ID)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	traced := run(Config{Workers: 1})
	untraced := run(Config{Workers: 1, DisableTracing: true})
	if !bytes.Equal(traced, untraced) {
		t.Fatalf("results differ with tracing on vs off:\n on: %s\noff: %s", traced, untraced)
	}
}

// TestTraceEndpointValidation covers the ID shape check and the
// not-found path.
func TestTraceEndpointValidation(t *testing.T) {
	s := newStubServer(t, Config{}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		return fakeResult(1), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, id := range []string{"xyz", strings.Repeat("0", 32), strings.Repeat("A", 32)} {
		resp, err := http.Get(ts.URL + "/v1/traces/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/traces/%s = %d, want 400", id, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/traces/" + strings.Repeat("ab", 16))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", resp.StatusCode)
	}
}

// TestTraceReportsDroppedSpans checks a trace read reports the spans
// the store's per-trace cap dropped, and that ?local=true is accepted.
func TestTraceReportsDroppedSpans(t *testing.T) {
	cl, ctx := tracedServer(t, Config{Workers: 1, TraceMaxSpans: 2}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		return fakeResult(1), nil
	})
	v, err := cl.SubmitJob(ctx, ncfSpec())
	if err != nil {
		t.Fatal(err)
	}
	if final, err := cl.WaitJob(ctx, v.ID, 2*time.Millisecond); err != nil || final.Status != StatusDone {
		t.Fatalf("job: %v %v", final.Status, err)
	}
	// cache_lookup, queue_wait and sim_run have all ended once the job
	// is done, so the cap of 2 has dropped at least one of them.
	view, err := cl.Trace(ctx, testRoot().TraceID, true)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if len(view.Spans) != 2 || view.Dropped < 1 {
		t.Errorf("trace has %d spans and %d dropped, want 2 kept and at least 1 dropped", len(view.Spans), view.Dropped)
	}
}
