package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mnpusim/internal/obs"
)

// mapRegistrySink is the registry fold obs.RegistrySink replaced: every
// event looks its handle up in a map keyed by (kind, core, unit) under
// a read lock, naming the metric through a closure on a miss. It is
// kept as the oracle the dense sink is checked against.
type mapRegistrySink struct {
	reg *obs.Registry

	mu       sync.RWMutex
	counters map[mapMetricKey]*obs.Counter
	hists    map[mapMetricKey]*obs.Histogram
}

type mapMetricKey struct {
	kind obs.Kind
	core int32
	unit int32
}

func newMapRegistrySink(reg *obs.Registry) *mapRegistrySink {
	return &mapRegistrySink{
		reg:      reg,
		counters: map[mapMetricKey]*obs.Counter{},
		hists:    map[mapMetricKey]*obs.Histogram{},
	}
}

func (s *mapRegistrySink) counter(k mapMetricKey, name func() string) *obs.Counter {
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

func (s *mapRegistrySink) histogram(k mapMetricKey, name func() string) *obs.Histogram {
	s.mu.RLock()
	h, ok := s.hists[k]
	s.mu.RUnlock()
	if ok {
		return h
	}
	h = s.reg.Histogram(name(), obs.DefaultLatencyBounds())
	s.mu.Lock()
	s.hists[k] = h
	s.mu.Unlock()
	return h
}

func (s *mapRegistrySink) coreCounter(e obs.Event, metric string) *obs.Counter {
	return s.counter(mapMetricKey{kind: e.Kind, core: e.Core}, func() string {
		return fmt.Sprintf("%s.core%d", metric, e.Core)
	})
}

func (s *mapRegistrySink) chanCounter(e obs.Event, metric string) *obs.Counter {
	return s.counter(mapMetricKey{kind: e.Kind, unit: e.Unit}, func() string {
		return fmt.Sprintf("%s.ch%d", metric, e.Unit)
	})
}

func (s *mapRegistrySink) Emit(e obs.Event) {
	switch e.Kind {
	case obs.KindRunStart:
		s.reg.Counter("sim.runs").Inc()
	case obs.KindRunEnd:
		s.reg.Counter("sim.global_cycles").Add(e.A)
		s.reg.Counter("sim.loop_iters").Add(e.B)
	case obs.KindSkipWindow:
		s.counter(mapMetricKey{kind: e.Kind}, func() string { return "sim.skip_windows" }).Inc()
		s.counter(mapMetricKey{kind: e.Kind, unit: 1}, func() string { return "sim.skipped_cycles" }).Add(e.A)
	case obs.KindTileStart:
		s.coreCounter(e, "npu.tiles_started").Inc()
	case obs.KindTileFinish:
		s.coreCounter(e, "npu.tiles_finished").Inc()
	case obs.KindSPMSwap:
		s.coreCounter(e, "npu.spm_swaps").Inc()
	case obs.KindDMAIssue:
		s.coreCounter(e, "npu.dma_issued").Inc()
	case obs.KindDMAComplete:
		s.coreCounter(e, "npu.dma_completed").Inc()
	case obs.KindIterDone:
		s.coreCounter(e, "npu.iterations").Inc()
	case obs.KindTLBHit:
		s.coreCounter(e, "mmu.tlb_hits").Inc()
	case obs.KindTLBMiss:
		s.coreCounter(e, "mmu.tlb_misses").Inc()
		if e.A == 1 {
			s.counter(mapMetricKey{kind: e.Kind, core: e.Core, unit: 1}, func() string {
				return fmt.Sprintf("mmu.tlb_coalesced.core%d", e.Core)
			}).Inc()
		}
	case obs.KindMSHRAlloc:
		s.coreCounter(e, "mmu.mshr_alloc").Inc()
	case obs.KindMSHRFree:
		s.coreCounter(e, "mmu.mshr_free").Inc()
	case obs.KindWalkStart:
		s.coreCounter(e, "mmu.walks_started").Inc()
	case obs.KindWalkEnd:
		s.coreCounter(e, "mmu.walks").Inc()
		s.histogram(mapMetricKey{kind: e.Kind, core: e.Core}, func() string {
			return fmt.Sprintf("mmu.walk_cycles.core%d", e.Core)
		}).Observe(e.B)
	case obs.KindDRAMEnqueue:
		s.chanCounter(e, "dram.enqueued").Inc()
	case obs.KindDRAMIssue:
		if e.B == 0 {
			s.chanCounter(e, "dram.cas_reads").Inc()
		} else {
			s.counter(mapMetricKey{kind: e.Kind, unit: e.Unit, core: 1}, func() string {
				return fmt.Sprintf("dram.cas_writes.ch%d", e.Unit)
			}).Inc()
		}
	case obs.KindRowHit:
		s.chanCounter(e, "dram.row_hits").Inc()
	case obs.KindRowMiss:
		s.chanCounter(e, "dram.row_misses").Inc()
	case obs.KindRowConflict:
		s.chanCounter(e, "dram.row_conflicts").Inc()
	case obs.KindRefresh:
		s.chanCounter(e, "dram.refreshes").Inc()
	case obs.KindTransfer:
		s.coreCounter(e, "dram.bytes_completed").Add(e.A)
	}
}

// foldTwin returns a sink feeding each event to a fresh obs.RegistrySink
// and a fresh oracle, and a function comparing their registries'
// snapshots byte for byte.
func foldTwin(t *testing.T) (obs.Sink, func(what string)) {
	dense, oracle := obs.NewRegistry(), obs.NewRegistry()
	sink := obs.Tee(obs.NewRegistrySink(dense), newMapRegistrySink(oracle))
	compare := func(what string) {
		t.Helper()
		var got, want strings.Builder
		if err := dense.Snapshot().WriteText(&got); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Snapshot().WriteText(&want); err != nil {
			t.Fatal(err)
		}
		if got.Len() == 0 || got.String() != want.String() {
			t.Errorf("%s: the sink's snapshot differs from the map oracle's:\nsink:\n%s\noracle:\n%s", what, got.String(), want.String())
		}
	}
	return sink, compare
}

// TestRegistrySinkMatchesMapOracle folds the probe stream of every
// skipConfigs class through obs.RegistrySink and through the map-based
// sink it replaced, into fresh registries, and byte-compares their
// snapshots.
func TestRegistrySinkMatchesMapOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("a full simulation per config")
	}
	t.Parallel()
	for name, cfg := range skipConfigs(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sink, compare := foldTwin(t)
			cfg.Obs = sink
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			compare(name)
		})
	}
}

// TestRegistrySinkMatchesMapOracleOffTable folds synthetic events no
// real system emits through both sinks: every kind (and one past the
// last) with a system core of -1, indexes past the dense table and
// negative ones, twice each so a resolved handle is reused.
func TestRegistrySinkMatchesMapOracleOffTable(t *testing.T) {
	sink, compare := foldTwin(t)
	indexes := []int32{-1, -7, 0, 1, 255, 256, 300, 1 << 20}
	for pass := 0; pass < 2; pass++ {
		for k := obs.KindRunStart; k <= obs.KindTransfer+1; k++ {
			for _, core := range indexes {
				for _, unit := range indexes {
					for _, ab := range []int64{0, 1, 30} {
						sink.Emit(obs.Event{Kind: k, Core: core, Unit: unit, A: ab, B: ab})
					}
				}
			}
		}
	}
	compare("synthetic events")
}
