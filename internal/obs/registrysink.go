package obs

import "strconv"

// family is one per-core or per-channel counter metric the sink folds
// into; its registry name is the family prefix plus the index.
type family uint8

const (
	famTilesStarted family = iota
	famTilesFinished
	famSPMSwaps
	famDMAIssued
	famDMACompleted
	famIterations
	famTLBHits
	famTLBMisses
	famTLBCoalesced
	famMSHRAlloc
	famMSHRFree
	famWalksStarted
	famWalks
	famBytesCompleted
	famEnqueued
	famCASReads
	famCASWrites
	famRowHits
	famRowMisses
	famRowConflicts
	famRefreshes
	numFamilies
)

var familyPrefix = [numFamilies]string{
	famTilesStarted:   "npu.tiles_started.core",
	famTilesFinished:  "npu.tiles_finished.core",
	famSPMSwaps:       "npu.spm_swaps.core",
	famDMAIssued:      "npu.dma_issued.core",
	famDMACompleted:   "npu.dma_completed.core",
	famIterations:     "npu.iterations.core",
	famTLBHits:        "mmu.tlb_hits.core",
	famTLBMisses:      "mmu.tlb_misses.core",
	famTLBCoalesced:   "mmu.tlb_coalesced.core",
	famMSHRAlloc:      "mmu.mshr_alloc.core",
	famMSHRFree:       "mmu.mshr_free.core",
	famWalksStarted:   "mmu.walks_started.core",
	famWalks:          "mmu.walks.core",
	famBytesCompleted: "dram.bytes_completed.core",
	famEnqueued:       "dram.enqueued.ch",
	famCASReads:       "dram.cas_reads.ch",
	famCASWrites:      "dram.cas_writes.ch",
	famRowHits:        "dram.row_hits.ch",
	famRowMisses:      "dram.row_misses.ch",
	famRowConflicts:   "dram.row_conflicts.ch",
	famRefreshes:      "dram.refreshes.ch",
}

// scalar is one run-wide counter the sink folds into.
type scalar uint8

const (
	scRuns scalar = iota
	scGlobalCycles
	scLoopIters
	scSkipWindows
	scSkippedCycles
	numScalars
)

var scalarName = [numScalars]string{
	scRuns:          "sim.runs",
	scGlobalCycles:  "sim.global_cycles",
	scLoopIters:     "sim.loop_iters",
	scSkipWindows:   "sim.skip_windows",
	scSkippedCycles: "sim.skipped_cycles",
}

// walkCyclesPrefix names the per-core walk-latency histograms.
const walkCyclesPrefix = "mmu.walk_cycles.core"

// maxDense bounds the core or channel index whose handle the sink
// keeps. A stream from a real system never comes near it, but a
// damaged flight-recorder dump replayed through its Snapshot can carry
// any index, and the table must not grow to match. An event past it
// (or with a negative index) is still counted, by a registry lookup
// per event.
const maxDense = 256

// RegistrySink folds the probe stream into registry counters and
// histograms. It resolves each handle from the registry by name once,
// on the first event that needs it, and keeps it in a dense table
// indexed by family and core or channel, so steady-state emission is a
// switch on the kind, a slice index and an atomic add into the shared
// registry. Nothing is registered before an event asks for it, so the
// snapshot holds only metrics the stream touched.
//
// A sink is not safe for concurrent use: build one per run (sim.Run
// does) and emit from that run's goroutine. The registry it adds into
// may be shared by any number of sinks running concurrently, and a
// reader sees the counts move while the run emits.
type RegistrySink struct {
	reg     *Registry
	scalars [numScalars]*Counter
	// counters[f][i] is family f's counter for core or channel i, nil
	// until first used.
	counters [numFamilies][]*Counter
	// walkCycles[i] is core i's walk-latency histogram.
	walkCycles []*Histogram
}

// NewRegistrySink returns a sink accumulating into reg.
func NewRegistrySink(reg *Registry) *RegistrySink {
	return &RegistrySink{reg: reg}
}

// add adds n to family f's counter for index i.
func (s *RegistrySink) add(f family, i int32, n int64) {
	if hs := s.counters[f]; uint(i) < uint(len(hs)) && hs[i] != nil {
		hs[i].Add(n)
		return
	}
	s.counter(f, i).Add(n)
}

// counter resolves family f's counter for index i from the registry,
// keeping it when i fits the dense table.
func (s *RegistrySink) counter(f family, i int32) *Counter {
	c := s.reg.Counter(familyPrefix[f] + strconv.Itoa(int(i)))
	if i >= 0 && i < maxDense {
		s.counters[f] = keep(s.counters[f], i, c)
	}
	return c
}

// addScalar adds n to run-wide counter m.
func (s *RegistrySink) addScalar(m scalar, n int64) {
	c := s.scalars[m]
	if c == nil {
		c = s.reg.Counter(scalarName[m])
		s.scalars[m] = c
	}
	c.Add(n)
}

// observeWalk records one walk latency in core i's histogram.
func (s *RegistrySink) observeWalk(i int32, v int64) {
	if hs := s.walkCycles; uint(i) < uint(len(hs)) && hs[i] != nil {
		hs[i].Observe(v)
		return
	}
	h := s.reg.Histogram(walkCyclesPrefix+strconv.Itoa(int(i)), DefaultLatencyBounds())
	if i >= 0 && i < maxDense {
		s.walkCycles = keep(s.walkCycles, i, h)
	}
	h.Observe(v)
}

// keep stores v at index i of hs, growing hs to hold it.
func keep[T any](hs []*T, i int32, v *T) []*T {
	if n := int(i) + 1; n > len(hs) {
		hs = append(hs, make([]*T, n-len(hs))...)
	}
	hs[i] = v
	return hs
}

// Emit folds one event into the registry.
func (s *RegistrySink) Emit(e Event) {
	switch e.Kind {
	case KindRunStart:
		s.addScalar(scRuns, 1)
	case KindRunEnd:
		s.addScalar(scGlobalCycles, e.A)
		s.addScalar(scLoopIters, e.B)
	case KindSkipWindow:
		s.addScalar(scSkipWindows, 1)
		s.addScalar(scSkippedCycles, e.A)
	case KindTileStart:
		s.add(famTilesStarted, e.Core, 1)
	case KindTileFinish:
		s.add(famTilesFinished, e.Core, 1)
	case KindSPMSwap:
		s.add(famSPMSwaps, e.Core, 1)
	case KindDMAIssue:
		s.add(famDMAIssued, e.Core, 1)
	case KindDMAComplete:
		s.add(famDMACompleted, e.Core, 1)
	case KindIterDone:
		s.add(famIterations, e.Core, 1)
	case KindTLBHit:
		s.add(famTLBHits, e.Core, 1)
	case KindTLBMiss:
		s.add(famTLBMisses, e.Core, 1)
		if e.A == 1 {
			s.add(famTLBCoalesced, e.Core, 1)
		}
	case KindMSHRAlloc:
		s.add(famMSHRAlloc, e.Core, 1)
	case KindMSHRFree:
		s.add(famMSHRFree, e.Core, 1)
	case KindWalkStart:
		s.add(famWalksStarted, e.Core, 1)
	case KindWalkEnd:
		s.add(famWalks, e.Core, 1)
		s.observeWalk(e.Core, e.B)
	case KindDRAMEnqueue:
		s.add(famEnqueued, e.Unit, 1)
	case KindDRAMIssue:
		if e.B == 0 {
			s.add(famCASReads, e.Unit, 1)
		} else {
			s.add(famCASWrites, e.Unit, 1)
		}
	case KindRowHit:
		s.add(famRowHits, e.Unit, 1)
	case KindRowMiss:
		s.add(famRowMisses, e.Unit, 1)
	case KindRowConflict:
		s.add(famRowConflicts, e.Unit, 1)
	case KindRefresh:
		s.add(famRefreshes, e.Unit, 1)
	case KindTransfer:
		s.add(famBytesCompleted, e.Core, e.A)
	}
}
