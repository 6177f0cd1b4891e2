// Package dtrace is the serving layer's distributed-tracing layer: it
// follows one request — a job or a whole sweep — from the caller into
// the daemon's queues, caches, and the simulation run itself, using W3C
// traceparent propagation so every hop shares a single trace ID.
//
// Spans are recorded complete (emit-on-end, Jaeger-style): a span is
// built while the operation runs and appended to a bounded in-memory
// Store when it finishes. Timestamps come from hostprof.WallNow, the
// sanctioned wall-clock boundary, so spans from different processes
// (a client and the daemon) line up on one epoch-anchored timeline
// without adding new clock reads to the simulation tree.
//
// The package is deterministic-ID-safe: trace, span, and request IDs
// come from a splitmix64 stream seeded once per Tracer from the
// process start time and the service name — no math/rand globals, no
// time.Now calls — so the nodeterminism analyzer stays clean over
// internal/obs and simulation results are byte-identical with tracing
// on or off (tracing is observation only and never feeds simulation
// state).
package dtrace

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync/atomic"

	"mnpusim/internal/obs/hostprof"
)

// SpanContext identifies one position in a trace: the trace it belongs
// to and the span that is the current parent. The zero value is
// invalid (no trace).
type SpanContext struct {
	TraceID string // 32 lowercase hex digits, non-zero
	SpanID  string // 16 lowercase hex digits, non-zero
	Sampled bool   // trace-flags bit 0: downstream hops should record
}

// Valid reports whether sc names a real trace position.
func (sc SpanContext) Valid() bool {
	return isHex(sc.TraceID, 32) && sc.TraceID != zeroTraceID &&
		isHex(sc.SpanID, 16) && sc.SpanID != zeroSpanID
}

const (
	zeroTraceID = "00000000000000000000000000000000"
	zeroSpanID  = "0000000000000000"

	// Header is the W3C trace-context header name carrying a
	// SpanContext between processes.
	Header = "traceparent"
)

// Traceparent renders sc as a W3C traceparent header value
// (version 00): 00-<trace-id>-<span-id>-<flags>.
func (sc SpanContext) Traceparent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-" + flags
}

// ParseTraceparent parses a version-00 W3C traceparent header value.
// It returns ok=false for malformed values, unknown versions, and the
// all-zero trace or span ID (which the spec declares invalid).
func ParseTraceparent(v string) (SpanContext, bool) {
	// 00-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx-xxxxxxxxxxxxxxxx-xx
	if len(v) != 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return SpanContext{}, false
	}
	if v[0] != '0' || v[1] != '0' {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: v[3:35], SpanID: v[36:52]}
	flags := v[53:55]
	if !sc.Valid() || !isHex(flags, 2) {
		return SpanContext{}, false
	}
	b, _ := strconv.ParseUint(flags, 16, 8) // cannot fail: isHex accepted two hex digits
	sc.Sampled = b&1 == 1
	return sc, true
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Span is one completed operation. StartUnixNS/DurNS are
// hostprof.WallNow nanoseconds, so spans from different processes
// share a timeline. Attrs carry low-cardinality context (job ID, cache
// tier, configuration fingerprint); the sim_run span's "fingerprint"
// attribute links a trace to the cycle-domain Chrome trace and
// attribution buckets recorded for the same configuration.
type Span struct {
	TraceID     string            `json:"trace_id"`
	SpanID      string            `json:"span_id"`
	ParentID    string            `json:"parent_id,omitempty"`
	Name        string            `json:"name"`
	Service     string            `json:"service"`
	StartUnixNS int64             `json:"start_unix_ns"`
	DurNS       int64             `json:"dur_ns"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// Tracer mints IDs and records finished spans into a Store. A nil
// *Tracer is the disabled state: Start returns a nil *Active whose
// methods are all no-ops, so instrumented call sites need no guards.
type Tracer struct {
	service string
	store   *Store
	state   atomic.Uint64 // splitmix64 state, advanced per ID
}

// NewTracer returns a tracer recording spans for the named service
// (mnpuserved for the daemon) into store. The ID stream is seeded from
// the process start time and the service name, so tracers started
// together under different names draw from disjoint streams.
func NewTracer(service string, store *Store) *Tracer {
	h := fnv.New64a()
	h.Write([]byte(service))
	t := &Tracer{service: service, store: store}
	t.state.Store(uint64(hostprof.WallNow()) ^ h.Sum64())
	return t
}

// Service returns the name spans are recorded under.
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// nextID draws the next 64-bit value from the tracer's splitmix64
// stream. splitmix64 visits every 64-bit value exactly once per
// period, so IDs within one tracer never collide.
func (t *Tracer) nextID() uint64 {
	x := t.state.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 { // the all-zero ID is invalid per the W3C spec
		x = 1
	}
	return x
}

// NewTraceID mints a fresh 32-hex-digit trace ID.
func (t *Tracer) NewTraceID() string {
	return fmt.Sprintf("%016x%016x", t.nextID(), t.nextID())
}

// NewSpanID mints a fresh 16-hex-digit span ID.
func (t *Tracer) NewSpanID() string {
	return fmt.Sprintf("%016x", t.nextID())
}

// NewRequestID mints a request ID for access logging and the error
// envelope. It shares the span-ID format so one generator serves both.
func (t *Tracer) NewRequestID() string {
	if t == nil {
		return ""
	}
	return t.NewSpanID()
}

// Active is a span under construction. It is returned by Start and
// recorded into the store by End. Not safe for concurrent use; a nil
// *Active (disabled tracer, or Start under an invalid parent where the
// caller asked for no root) is a no-op.
type Active struct {
	t    *Tracer
	span Span
}

// Start opens a span. If parent is valid the span joins parent's
// trace as a child; otherwise a new trace is started with this span as
// its root. The span's start time is WallNow at the call.
func (t *Tracer) Start(parent SpanContext, name string) *Active {
	if t == nil {
		return nil
	}
	a := &Active{t: t, span: Span{
		Name:        name,
		Service:     t.service,
		SpanID:      t.NewSpanID(),
		StartUnixNS: hostprof.WallNow(),
	}}
	if parent.Valid() {
		a.span.TraceID = parent.TraceID
		a.span.ParentID = parent.SpanID
	} else {
		a.span.TraceID = t.NewTraceID()
	}
	return a
}

// StartChild opens a span only when parent is valid: instrumented
// paths that must not start traces of their own (queue wait, cache
// lookup, the simulation run) use it so untraced requests record
// nothing.
func (t *Tracer) StartChild(parent SpanContext, name string) *Active {
	if t == nil || !parent.Valid() {
		return nil
	}
	return t.Start(parent, name)
}

// Context returns the span's position for propagation to children and
// downstream hops. Spans are always sampled: a tracer only opens them
// on sampled requests.
func (a *Active) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: a.span.TraceID, SpanID: a.span.SpanID, Sampled: true}
}

// SetAttr attaches a key=value attribute.
func (a *Active) SetAttr(k, v string) {
	if a == nil {
		return
	}
	if a.span.Attrs == nil {
		a.span.Attrs = make(map[string]string, 4)
	}
	a.span.Attrs[k] = v
}

// SetStart overrides the span's start to an earlier WallNow reading —
// used for retrospective spans whose beginning was observed before the
// span object existed (queue wait measured from the enqueue stamp).
func (a *Active) SetStart(startUnixNS int64) {
	if a == nil {
		return
	}
	a.span.StartUnixNS = startUnixNS
}

// End stamps the span's duration and records it. A second End is a
// no-op.
func (a *Active) End() {
	if a == nil || a.t == nil {
		return
	}
	a.span.DurNS = hostprof.WallNow() - a.span.StartUnixNS
	if a.span.DurNS < 0 {
		a.span.DurNS = 0
	}
	a.t.store.Add(a.span)
	a.t = nil
}

// ctxKey carries a SpanContext through context.Context.
type ctxKey struct{}

// With returns ctx carrying sc. Invalid contexts are not attached.
func With(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sc)
}

// From extracts the SpanContext carried by ctx, if any.
func From(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok
}
