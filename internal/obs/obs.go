// Package obs is the simulator's unified observability layer: a typed
// event-probe API instrumented at the natural seams of the hardware
// models (internal/npu, internal/mmu, internal/dram, internal/sim), a
// counter/gauge/histogram registry with deterministic snapshot export,
// and a Chrome trace-event exporter that lays cores, DRAM channels, and
// page-table walkers out as named timeline tracks.
//
// Design rules:
//
//   - Zero overhead when disabled. Every probe site guards emission with
//     a nil check on a Sink interface field, so the disabled fast path
//     is a single branch and no Event is ever constructed.
//   - Observation never mutates simulation state. Simulation results are
//     byte-identical with observability on or off; the determinism smoke
//     test (internal/sim) proves it.
//   - Deterministic export. Registry snapshots are sorted by metric name
//     and contain only integers, so two identical runs produce
//     byte-identical snapshots.
//
// Timestamps are global (DRAM-clock) cycles. Events emitted by an NPU
// core are converted from its local clock through clock.Domain; cores
// with delayed execution initiation shift by their start offset so all
// tracks share one timeline.
package obs

import "mnpusim/internal/clock"

// Kind is the type of a probe event. The payload fields A and B are
// kind-specific; see the comment on each constant.
type Kind uint8

const (
	// KindRunStart opens a simulation. A = core count, Str = sharing level.
	KindRunStart Kind = iota
	// KindRunEnd closes a simulation. A = global cycles, B = main-loop
	// iterations ticked.
	KindRunEnd
	// KindCoreInfo names a core's workload. Core set, Str = network name.
	KindCoreInfo
	// KindPhase marks a simulation phase transition (e.g. a core
	// finishing its measured first inference). Core set, Str = label.
	KindPhase
	// KindSkipWindow records one event-driven fast-forward. A = cycles
	// skipped (the window is (Cycle, Cycle+A]).
	KindSkipWindow

	// KindTileStart marks a tile entering the systolic array.
	// Core set, A = tile index, B = layer.
	KindTileStart
	// KindTileFinish marks a tile's compute completion.
	// Core set, A = tile index, B = layer.
	KindTileFinish
	// KindSPMSwap marks a scratchpad double-buffer swap: the prefetched
	// half becomes the compute half. Core set, A = tile now resident.
	KindSPMSwap
	// KindDMAIssue marks a DMA request accepted by the MMU. Core set,
	// Unit = 0 read / 1 write, A = requests in flight after issue,
	// B = the request's virtual address.
	KindDMAIssue
	// KindDMAComplete marks a DMA request's data burst completing.
	// Core set, A = requests in flight after completion.
	KindDMAComplete
	// KindIterDone marks a full inference completing on a core.
	// Core set, A = completed iteration count.
	KindIterDone

	// KindTLBHit is a TLB lookup hit. Core set.
	KindTLBHit
	// KindTLBMiss is a TLB lookup miss. Core set, A = 1 if the miss
	// coalesced onto an already-pending walk.
	KindTLBMiss
	// KindMSHRAlloc marks a walk MSHR entry allocation. Core set,
	// A = pending walks after allocation.
	KindMSHRAlloc
	// KindMSHRFree marks a walk MSHR entry release. Core set,
	// A = pending walks after release.
	KindMSHRFree
	// KindWalkStart marks a page-table walk dispatched to a walker.
	// Core set, A = VPN, B = owning walker pool (core index).
	KindWalkStart
	// KindWalkEnd marks a walk completion. Core set, A = VPN,
	// B = walk latency in global cycles.
	KindWalkEnd

	// KindDRAMEnqueue marks a request admitted to a channel controller
	// queue. Core and Unit (channel) set, A = queue length after.
	KindDRAMEnqueue
	// KindDRAMIssue marks a CAS command servicing a request. Core
	// (issuing core) and Unit (channel) set, A = queue length after,
	// B = 0 read / 1 write.
	KindDRAMIssue
	// KindRowHit marks a CAS on an already-open row. Core (issuing
	// core) and Unit set.
	KindRowHit
	// KindRowMiss marks an activate on a closed bank. Core (the core
	// whose request forced it) and Unit set.
	KindRowMiss
	// KindRowConflict marks a precharge forced by a row conflict. Core
	// (the core whose request forced it) and Unit set.
	KindRowConflict
	// KindRefresh marks a rank refresh starting. Unit (channel) set,
	// A = tRFC duration in global cycles, B = rank.
	KindRefresh
	// KindTransfer marks a completed data burst, attributed to the
	// issuing core. Core and Unit (channel) set, A = bytes,
	// B = request class (mem.Class).
	KindTransfer

	numKinds
)

// PhaseFirstInference is the KindPhase label the simulator emits when a
// core completes its measured first inference. The attribution engine
// (obs/attrib) closes that core's accounting window on this event.
const PhaseFirstInference = "first-inference done"

var kindNames = [numKinds]string{
	KindRunStart:    "run_start",
	KindRunEnd:      "run_end",
	KindCoreInfo:    "core_info",
	KindPhase:       "phase",
	KindSkipWindow:  "skip_window",
	KindTileStart:   "tile_start",
	KindTileFinish:  "tile_finish",
	KindSPMSwap:     "spm_swap",
	KindDMAIssue:    "dma_issue",
	KindDMAComplete: "dma_complete",
	KindIterDone:    "iter_done",
	KindTLBHit:      "tlb_hit",
	KindTLBMiss:     "tlb_miss",
	KindMSHRAlloc:   "mshr_alloc",
	KindMSHRFree:    "mshr_free",
	KindWalkStart:   "walk_start",
	KindWalkEnd:     "walk_end",
	KindDRAMEnqueue: "dram_enqueue",
	KindDRAMIssue:   "dram_issue",
	KindRowHit:      "row_hit",
	KindRowMiss:     "row_miss",
	KindRowConflict: "row_conflict",
	KindRefresh:     "refresh",
	KindTransfer:    "transfer",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one structured probe record. It is a plain value: emitting
// an event allocates nothing beyond what the consuming sink does.
type Event struct {
	// Cycle is the global (DRAM-clock) cycle of the event.
	Cycle clock.Global
	Kind  Kind
	// Core is the originating core index, or -1 for system events.
	Core int32
	// Unit is a kind-specific sub-component index (DRAM channel for the
	// dram kinds), or 0 when unused.
	Unit int32
	// A and B are kind-specific payloads; see the Kind constants.
	A, B int64
	// Str is a rare human-readable label (run/phase/core-info events
	// only); empty on hot-path events.
	Str string
}

// Sink consumes probe events. Implementations must not mutate simulator
// state from Emit; sinks used from a parallel experiment runner must be
// safe for concurrent use.
type Sink interface {
	Emit(e Event)
}

// tee fans one event stream out to several sinks.
type tee struct{ sinks []Sink }

func (t *tee) Emit(e Event) {
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// Tee returns a sink forwarding every event to all non-nil sinks. With
// zero non-nil sinks it returns nil (preserving the nil fast path);
// with one it returns that sink unwrapped.
func Tee(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &tee{sinks: live}
}

// Func adapts a function to the Sink interface.
type Func func(e Event)

// Emit calls f.
func (f Func) Emit(e Event) { f(e) }
