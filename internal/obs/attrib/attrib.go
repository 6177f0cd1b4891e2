// Package attrib is the stall-cycle attribution engine: an obs.Sink
// that folds the probe event stream into, per core, a deterministic
// breakdown of the measured first-inference window into exhaustive,
// non-overlapping buckets — compute, the SPM/DMA wait split into
// DRAM-queue wait vs row-conflict penalty vs data transfer, the
// TLB-miss stall split into PTW-queue wait vs walk latency, and idle.
//
// # Accounting model
//
// The engine does not sum independently measured latencies (which could
// never reconcile rounding across clock domains); it partitions a known
// window. Each core's local-cycle axis [0, FirstIterCycles) is labelled
// left to right: every event that changes the core's occupancy state
// closes the interval since the previous boundary, charging it to the
// bucket chosen by the state *before* the event. Because the intervals
// tile the window, sum(buckets) == total cycles holds by construction;
// the -tags=invariants build verifies the bookkeeping at finalization.
//
// Global event timestamps map onto the local axis through the core's
// clock.Domain exactly as the simulator's main loop does: a core
// event stamped at ToGlobal(L)+start maps back to local cycle L, and
// the "first-inference done" phase event at global g closes the window
// at LocalFloor(g-start+1) — the same expression npu.Core.Tick used to
// set FirstIterCycles, which is why the totals match sim.Result
// exactly. Boundaries are clamped monotonic, so the slight reordering
// between core-local and memory timestamps within one global tick moves
// a bucket edge by at most one cycle and never breaks the partition.
//
// # Occupancy state
//
// Per core the engine tracks, from event payloads alone:
//
//   - computing: between KindTileStart and KindTileFinish
//   - walksActive/walksQueued: KindMSHRAlloc -> KindWalkStart -> KindWalkEnd
//   - transfers: KindDRAMIssue (CAS) -> KindTransfer (burst complete)
//   - dramQueued: KindDRAMEnqueue -> KindDRAMIssue
//   - rowConflict: KindRowConflict until the core's next CAS
//   - inflight: the authoritative DMA in-flight count carried by
//     KindDMAIssue/KindDMAComplete payloads
//
// When the core is not computing, the stall is charged by a fixed
// priority waterfall: walk > ptw_queue > transfer > row_conflict >
// dram_queue > idle. The dram_queue bucket is deliberately the
// catch-all memory-system wait (it also absorbs MMU admission queueing
// and walk coalescing on another core's walk, which have no dedicated
// probes); idle means no DMA request was in flight at all.
//
// The engine is not safe for concurrent use; wrap it with obs.Locked
// if events may arrive from more than one goroutine.
package attrib

import (
	"fmt"

	"mnpusim/internal/clock"
	"mnpusim/internal/invariant"
	"mnpusim/internal/obs"
)

// Bucket identifies one attribution bucket.
type Bucket int

// The buckets, in taxonomy order: compute, the three-way DMA/memory
// wait split, the two-way translation stall split, and idle.
const (
	BucketCompute Bucket = iota
	BucketDRAMQueue
	BucketRowConflict
	BucketTransfer
	BucketPTWQueue
	BucketWalk
	BucketIdle
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	BucketCompute:     "compute",
	BucketDRAMQueue:   "dram_queue",
	BucketRowConflict: "row_conflict",
	BucketTransfer:    "transfer",
	BucketPTWQueue:    "ptw_queue",
	BucketWalk:        "walk",
	BucketIdle:        "idle",
}

func (b Bucket) String() string {
	if b >= 0 && b < NumBuckets {
		return bucketNames[b]
	}
	return "unknown"
}

// BucketNames returns the bucket labels in taxonomy order (the column
// order of every attribution export).
func BucketNames() []string {
	out := make([]string, NumBuckets)
	for i := range out {
		out[i] = bucketNames[i]
	}
	return out
}

// CoreBreakdown is one core's attributed first-inference window. All
// cycle counts are in the core's local clock, matching the Cycles field
// of sim.CoreResult.
type CoreBreakdown struct {
	Core int    `json:"core"`
	Net  string `json:"net,omitempty"`
	// TotalCycles is the attributed window length; for a finalized core
	// it equals the core's measured first-inference latency.
	TotalCycles int64 `json:"total_cycles"`
	Compute     int64 `json:"compute"`
	DRAMQueue   int64 `json:"dram_queue"`
	RowConflict int64 `json:"row_conflict"`
	Transfer    int64 `json:"transfer"`
	PTWQueue    int64 `json:"ptw_queue"`
	Walk        int64 `json:"walk"`
	Idle        int64 `json:"idle"`
}

// Buckets returns the cycle counts in taxonomy order.
func (c CoreBreakdown) Buckets() [NumBuckets]int64 {
	return [NumBuckets]int64{c.Compute, c.DRAMQueue, c.RowConflict, c.Transfer, c.PTWQueue, c.Walk, c.Idle}
}

// Bucket returns one bucket's cycle count.
func (c CoreBreakdown) Bucket(b Bucket) int64 {
	if b >= 0 && b < NumBuckets {
		return c.Buckets()[b]
	}
	return 0
}

// Sum returns the total attributed cycles across buckets.
func (c CoreBreakdown) Sum() int64 {
	var s int64
	for _, v := range c.Buckets() {
		s += v
	}
	return s
}

// Fraction returns one bucket's share of the window, or 0 for an empty
// window.
func (c CoreBreakdown) Fraction(b Bucket) float64 {
	if c.TotalCycles == 0 {
		return 0
	}
	return float64(c.Bucket(b)) / float64(c.TotalCycles)
}

// Minus returns the per-bucket difference c - base: the extra cycles
// each bucket cost relative to a baseline run (e.g. Static vs Ideal).
// Deltas may be negative when a bucket shrank.
func (c CoreBreakdown) Minus(base CoreBreakdown) CoreBreakdown {
	return CoreBreakdown{
		Core:        c.Core,
		Net:         c.Net,
		TotalCycles: c.TotalCycles - base.TotalCycles,
		Compute:     c.Compute - base.Compute,
		DRAMQueue:   c.DRAMQueue - base.DRAMQueue,
		RowConflict: c.RowConflict - base.RowConflict,
		Transfer:    c.Transfer - base.Transfer,
		PTWQueue:    c.PTWQueue - base.PTWQueue,
		Walk:        c.Walk - base.Walk,
		Idle:        c.Idle - base.Idle,
	}
}

// Report is the engine's output: one breakdown per core.
type Report struct {
	Cores []CoreBreakdown `json:"cores"`
}

// Validate checks the structural invariants every finalized report must
// satisfy: non-negative buckets that sum exactly to each core's total.
func (r Report) Validate() error {
	for _, c := range r.Cores {
		var sum int64
		for b, v := range c.Buckets() {
			if v < 0 {
				return fmt.Errorf("attrib: core %d bucket %s negative: %d", c.Core, Bucket(b), v)
			}
			sum += v
		}
		if sum != c.TotalCycles {
			return fmt.Errorf("attrib: core %d buckets sum to %d, total is %d", c.Core, sum, c.TotalCycles)
		}
	}
	return nil
}

// CoreClock describes one core's position on the global timeline: its
// clock domain and its execution-initiation start offset (global
// cycles), plus a display label (the workload name).
type CoreClock struct {
	Dom   clock.Domain
	Start clock.Global
	Label string
}

// coreState is the per-core accumulator.
type coreState struct {
	dom   clock.Domain
	start clock.Global
	label string

	// lastLocal is the boundary up to which local cycles are attributed:
	// cycles [0, lastLocal) are already charged.
	lastLocal clock.Local
	buckets   [NumBuckets]int64
	done      bool
	total     clock.Local

	// Occupancy state (see the package comment).
	computing   bool
	inflight    int64
	walksQueued int64
	walksActive int64
	dramQueued  int64
	transfers   int64
	rowConflict bool
}

// Engine is the attribution sink. Create it with New, feed it a
// simulation's probe stream (tee it into sim.Config.Obs), then call
// Report after the run.
type Engine struct {
	cores []coreState
}

// New builds an engine for a system with the given per-core clocks.
// sim.NewAttribution derives the clocks from a sim.Config.
func New(clocks []CoreClock) *Engine {
	e := &Engine{cores: make([]coreState, len(clocks))}
	for i, c := range clocks {
		e.cores[i] = coreState{dom: c.Dom, start: c.Start, label: c.Label}
	}
	return e
}

// bucket returns the label for the core's current occupancy state: the
// priority waterfall of the package comment.
func (s *coreState) bucket() Bucket {
	switch {
	case s.computing:
		return BucketCompute
	case s.walksActive > 0:
		return BucketWalk
	case s.walksQueued > 0:
		return BucketPTWQueue
	case s.transfers > 0:
		return BucketTransfer
	case s.rowConflict:
		return BucketRowConflict
	case s.dramQueued > 0 || s.inflight > 0:
		return BucketDRAMQueue
	default:
		return BucketIdle
	}
}

// advance closes the interval [lastLocal, local(g)) under the current
// state, where local(g) = LocalFloor(g-start) maps the global event
// cycle back onto the core's local axis (the exact inverse of the
// probe-site timestamp conversion). Boundaries are clamped monotonic.
func (s *coreState) advance(g clock.Global) {
	lb := s.dom.LocalFloor(g - s.start)
	if lb <= s.lastLocal {
		return
	}
	s.buckets[s.bucket()] += (lb - s.lastLocal).Int64()
	s.lastLocal = lb
}

// finalize closes the window at the core's measured first-inference
// length. g is the global cycle of the phase event, emitted in the same
// tick that set FirstIterCycles = LocalFloor(g-start+1).
func (s *coreState) finalize(g clock.Global) {
	total := s.dom.LocalFloor(g - s.start + 1)
	if total < s.lastLocal {
		total = s.lastLocal
	}
	if total > s.lastLocal {
		s.buckets[s.bucket()] += (total - s.lastLocal).Int64()
		s.lastLocal = total
	}
	s.total = total
	s.done = true
	if invariant.Enabled {
		var sum int64
		for _, v := range s.buckets {
			invariant.Check(v >= 0, "attrib: negative bucket %d", v)
			sum += v
		}
		invariant.Check(sum == s.total.Int64(),
			"attrib: buckets sum to %d, window is %d local cycles", sum, s.total)
	}
}

// Emit consumes one probe event. Events after a core's measured window
// closed (the co-runner loop iterations) are ignored.
func (e *Engine) Emit(ev obs.Event) {
	c := int(ev.Core)
	if c < 0 || c >= len(e.cores) {
		return
	}
	s := &e.cores[c]
	if s.done {
		return
	}
	switch ev.Kind {
	case obs.KindPhase:
		if ev.Str == obs.PhaseFirstInference {
			s.finalize(ev.Cycle)
		}
	case obs.KindTileStart:
		s.advance(ev.Cycle)
		s.computing = true
	case obs.KindTileFinish:
		s.advance(ev.Cycle)
		s.computing = false
	case obs.KindDMAIssue:
		s.advance(ev.Cycle)
		s.inflight = ev.A
	case obs.KindDMAComplete:
		s.advance(ev.Cycle)
		s.inflight = ev.A
	case obs.KindMSHRAlloc:
		s.advance(ev.Cycle)
		s.walksQueued++
	case obs.KindWalkStart:
		s.advance(ev.Cycle)
		if s.walksQueued > 0 {
			s.walksQueued--
		}
		s.walksActive++
	case obs.KindWalkEnd:
		s.advance(ev.Cycle)
		if s.walksActive > 0 {
			s.walksActive--
		}
	case obs.KindDRAMEnqueue:
		s.advance(ev.Cycle)
		s.dramQueued++
	case obs.KindDRAMIssue:
		s.advance(ev.Cycle)
		if s.dramQueued > 0 {
			s.dramQueued--
		}
		s.transfers++
		s.rowConflict = false
	case obs.KindTransfer:
		s.advance(ev.Cycle)
		if s.transfers > 0 {
			s.transfers--
		}
	case obs.KindRowConflict:
		s.advance(ev.Cycle)
		s.rowConflict = true
	}
}

// Finalized reports whether every core's measured window has closed.
func (e *Engine) Finalized() bool {
	for i := range e.cores {
		if !e.cores[i].done {
			return false
		}
	}
	return true
}

// Report snapshots the per-core breakdowns. For a completed simulation
// every core is finalized and TotalCycles equals the core's measured
// first-inference latency (sim.CoreResult.Cycles); a core whose window
// has not closed yet reports the cycles attributed so far.
func (e *Engine) Report() Report {
	out := Report{Cores: make([]CoreBreakdown, len(e.cores))}
	for i := range e.cores {
		s := &e.cores[i]
		total := s.total
		if !s.done {
			total = s.lastLocal
		}
		out.Cores[i] = CoreBreakdown{
			Core:        i,
			Net:         s.label,
			TotalCycles: total.Int64(),
			Compute:     s.buckets[BucketCompute],
			DRAMQueue:   s.buckets[BucketDRAMQueue],
			RowConflict: s.buckets[BucketRowConflict],
			Transfer:    s.buckets[BucketTransfer],
			PTWQueue:    s.buckets[BucketPTWQueue],
			Walk:        s.buckets[BucketWalk],
			Idle:        s.buckets[BucketIdle],
		}
	}
	return out
}
