package obs

import (
	"fmt"
	"sync"
)

// metricKey identifies one pre-resolved metric handle: an event kind
// plus the component indices that select the metric's name.
type metricKey struct {
	kind Kind
	core int32
	unit int32
}

// RegistrySink folds the probe stream into registry counters and
// histograms, pre-resolving metric handles per (kind, core, unit) so
// steady-state emission is a map read plus an atomic add. It is safe
// for concurrent use, so one sink can accumulate across the parallel
// experiment runner.
type RegistrySink struct {
	reg *Registry

	mu       sync.RWMutex
	counters map[metricKey]*Counter
	hists    map[metricKey]*Histogram
}

// NewRegistrySink returns a sink accumulating into reg.
func NewRegistrySink(reg *Registry) *RegistrySink {
	return &RegistrySink{
		reg:      reg,
		counters: map[metricKey]*Counter{},
		hists:    map[metricKey]*Histogram{},
	}
}

func (s *RegistrySink) counter(k metricKey, name func() string) *Counter {
	s.mu.RLock()
	c, ok := s.counters[k]
	s.mu.RUnlock()
	if ok {
		return c
	}
	c = s.reg.Counter(name())
	s.mu.Lock()
	s.counters[k] = c
	s.mu.Unlock()
	return c
}

func (s *RegistrySink) histogram(k metricKey, name func() string) *Histogram {
	s.mu.RLock()
	h, ok := s.hists[k]
	s.mu.RUnlock()
	if ok {
		return h
	}
	h = s.reg.Histogram(name(), DefaultLatencyBounds())
	s.mu.Lock()
	s.hists[k] = h
	s.mu.Unlock()
	return h
}

func (s *RegistrySink) coreCounter(e Event, metric string) *Counter {
	return s.counter(metricKey{kind: e.Kind, core: e.Core}, func() string {
		return fmt.Sprintf("%s.core%d", metric, e.Core)
	})
}

func (s *RegistrySink) chanCounter(e Event, metric string) *Counter {
	return s.counter(metricKey{kind: e.Kind, unit: e.Unit}, func() string {
		return fmt.Sprintf("%s.ch%d", metric, e.Unit)
	})
}

// Emit folds one event into the registry.
func (s *RegistrySink) Emit(e Event) {
	switch e.Kind {
	case KindRunStart:
		s.reg.Counter("sim.runs").Inc()
	case KindRunEnd:
		s.reg.Counter("sim.global_cycles").Add(e.A)
		s.reg.Counter("sim.loop_iters").Add(e.B)
	case KindSkipWindow:
		s.counter(metricKey{kind: e.Kind}, func() string { return "sim.skip_windows" }).Inc()
		s.counter(metricKey{kind: e.Kind, unit: 1}, func() string { return "sim.skipped_cycles" }).Add(e.A)
	case KindTileStart:
		s.coreCounter(e, "npu.tiles_started").Inc()
	case KindTileFinish:
		s.coreCounter(e, "npu.tiles_finished").Inc()
	case KindSPMSwap:
		s.coreCounter(e, "npu.spm_swaps").Inc()
	case KindDMAIssue:
		s.coreCounter(e, "npu.dma_issued").Inc()
	case KindDMAComplete:
		s.coreCounter(e, "npu.dma_completed").Inc()
	case KindIterDone:
		s.coreCounter(e, "npu.iterations").Inc()
	case KindTLBHit:
		s.coreCounter(e, "mmu.tlb_hits").Inc()
	case KindTLBMiss:
		s.coreCounter(e, "mmu.tlb_misses").Inc()
		if e.A == 1 {
			s.counter(metricKey{kind: e.Kind, core: e.Core, unit: 1}, func() string {
				return fmt.Sprintf("mmu.tlb_coalesced.core%d", e.Core)
			}).Inc()
		}
	case KindMSHRAlloc:
		s.coreCounter(e, "mmu.mshr_alloc").Inc()
	case KindMSHRFree:
		s.coreCounter(e, "mmu.mshr_free").Inc()
	case KindWalkStart:
		s.coreCounter(e, "mmu.walks_started").Inc()
	case KindWalkEnd:
		s.coreCounter(e, "mmu.walks").Inc()
		s.histogram(metricKey{kind: e.Kind, core: e.Core}, func() string {
			return fmt.Sprintf("mmu.walk_cycles.core%d", e.Core)
		}).Observe(e.B)
	case KindDRAMEnqueue:
		s.chanCounter(e, "dram.enqueued").Inc()
	case KindDRAMIssue:
		if e.B == 0 {
			s.chanCounter(e, "dram.cas_reads").Inc()
		} else {
			s.counter(metricKey{kind: e.Kind, unit: e.Unit, core: 1}, func() string {
				return fmt.Sprintf("dram.cas_writes.ch%d", e.Unit)
			}).Inc()
		}
	case KindRowHit:
		s.chanCounter(e, "dram.row_hits").Inc()
	case KindRowMiss:
		s.chanCounter(e, "dram.row_misses").Inc()
	case KindRowConflict:
		s.chanCounter(e, "dram.row_conflicts").Inc()
	case KindRefresh:
		s.chanCounter(e, "dram.refreshes").Inc()
	case KindTransfer:
		s.coreCounter(e, "dram.bytes_completed").Add(e.A)
	}
}
