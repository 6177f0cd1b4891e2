// Package hostprof measures where the simulator's own wall time goes:
// event-kernel scheduling (heap traffic and horizon scans) versus
// per-component tick work versus probe-sink emission. It exists so the
// question "is the simulator slow because of DRAM modeling, the event
// heap, or observability overhead?" has a measured answer before any
// tuning work starts.
//
// hostprof is the one sanctioned wall-clock consumer in the simulation
// tree: every other package derives timing from cycle counts (enforced
// by the nodeterminism analyzer), and the single time.Now read below
// carries the one //lint:allow nodeterminism directive. Profiling is
// observation only — it never feeds back into simulation state, so
// results are byte-identical with a Profiler attached or not (proven by
// TestHostProfDoesNotPerturbResults in internal/sim).
//
// Published metrics are wall-clock nanoseconds and therefore vary run
// to run by nature; they are named sim.host_ns.component.<section> in
// the registry, which the Prometheus exposition renders as
// sim_host_ns{component="<section>"}.
package hostprof

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"mnpusim/internal/obs"
)

// Section is one bucket of the simulator's host wall time.
type Section uint8

const (
	// SecKernelHeap is event-kernel scheduling: the wake-array scans
	// and horizon re-arming, and — in the tick reference — the
	// fast-forward horizon computation. It keeps its name from the
	// kernel's former binary heap.
	SecKernelHeap Section = iota
	// SecTickDRAM is time inside DRAM channel ticks.
	SecTickDRAM
	// SecTickMMU is time inside MMU ticks.
	SecTickMMU
	// SecTickCore is time inside NPU core ticks.
	SecTickCore
	// SecObs is probe-sink emission time measured at the sink boundary
	// (WrapSink). Emission that happens inside a component's Tick is
	// also inside that component's section: SecObs is the total cost of
	// the observability layer, not a disjoint remainder.
	SecObs
	// SecRun is the whole run's wall time, ticks and scheduling and all
	// bookkeeping between them included. It is the denominator the other
	// sections are fractions of.
	SecRun

	NumSections
)

var sectionNames = [NumSections]string{
	SecKernelHeap: "kernel_heap",
	SecTickDRAM:   "tick_dram",
	SecTickMMU:    "tick_mmu",
	SecTickCore:   "tick_core",
	SecObs:        "obs",
	SecRun:        "run",
}

func (s Section) String() string {
	if int(s) < len(sectionNames) {
		return sectionNames[s]
	}
	return "unknown"
}

// Sections lists every section in declaration order.
func Sections() []Section {
	out := make([]Section, NumSections)
	for i := range out {
		out[i] = Section(i)
	}
	return out
}

// Now is the sanctioned wall-clock read: a monotonic nanosecond
// timestamp. Every host-time measurement in the tree goes through this
// function so the determinism lint has exactly one boundary to audit.
func Now() int64 {
	//lint:allow nodeterminism hostprof is the one sanctioned wall-clock consumer: it measures the simulator's own host time and never feeds simulation state
	return int64(time.Since(processStart))
}

// processStart anchors Now to a monotonic-clock base.
//
//lint:allow nodeterminism see Now: the single sanctioned wall-clock boundary
var processStart = time.Now()

// wallAnchor is processStart as Unix nanoseconds, captured once so
// WallNow needs no further clock reads.
var wallAnchor = processStart.UnixNano()

// WallNow is Now anchored to the Unix epoch: a wall-clock nanosecond
// timestamp that is comparable across processes (to clock-sync
// accuracy) while still advancing on the monotonic clock. Distributed
// tracing uses it to place spans from different daemons on one
// timeline; like Now, it never feeds simulation state.
func WallNow() int64 {
	return wallAnchor + Now()
}

// Profiler accumulates per-section wall nanoseconds. All methods are
// safe for concurrent use and nil-safe: a nil *Profiler is the disabled
// state and every method is a no-op on it, so call sites need no guard
// beyond the pointer test they already make for the hot ladder.
type Profiler struct {
	ns [NumSections]atomic.Int64
}

// New returns an empty profiler.
func New() *Profiler { return &Profiler{} }

// Add credits ns nanoseconds to section s.
func (p *Profiler) Add(s Section, ns int64) {
	if p == nil {
		return
	}
	p.ns[s].Add(ns)
}

// AddSince credits Now()-start to section s and returns the fresh
// timestamp, so consecutive measurements ladder with one clock read per
// boundary instead of two.
func (p *Profiler) AddSince(s Section, start int64) int64 {
	if p == nil {
		return start
	}
	now := Now()
	p.ns[s].Add(now - start)
	return now
}

// NS returns the nanoseconds accumulated in section s.
func (p *Profiler) NS(s Section) int64 {
	if p == nil {
		return 0
	}
	return p.ns[s].Load()
}

// Publish adds the per-section totals to reg as
// sim.host_ns.component.<section> counters. The counters accumulate:
// runs sharing one registry sum their host time, matching every other
// registry metric.
func (p *Profiler) Publish(reg *obs.Registry) {
	if p == nil || reg == nil {
		return
	}
	for _, s := range Sections() {
		reg.Counter("sim.host_ns.component." + s.String()).Add(p.NS(s))
	}
}

// WriteBreakdown writes the per-section totals as aligned text lines
// with each section's share of the run total.
func (p *Profiler) WriteBreakdown(w io.Writer) error {
	total := p.NS(SecRun)
	for _, s := range Sections() {
		ns := p.NS(s)
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(ns) / float64(total)
		}
		if _, err := fmt.Fprintf(w, "host %-12s %12d ns %6.2f%%\n", s.String(), ns, pct); err != nil {
			return err
		}
	}
	return nil
}

// timedSink measures every Emit into SecObs.
type timedSink struct {
	s obs.Sink
	p *Profiler
}

func (t timedSink) Emit(e obs.Event) {
	start := Now()
	t.s.Emit(e)
	t.p.Add(SecObs, Now()-start)
}

// WrapSink returns a sink forwarding to s that credits each Emit's wall
// time to SecObs. A nil profiler or nil sink passes s through unwrapped
// (preserving the nil fast path).
func (p *Profiler) WrapSink(s obs.Sink) obs.Sink {
	if p == nil || s == nil {
		return s
	}
	return timedSink{s: s, p: p}
}
