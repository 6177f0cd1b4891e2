// Package mmu models the shared memory-management unit of a multi-core
// NPU: per-core or shared TLBs, a pool of page-table walkers whose walk
// accesses are real DRAM transactions, and multi-level radix page
// tables, following the NeuMMU design the paper adopts.
//
// Because the scratchpad is virtually addressed, every off-chip request
// requires a translation; a tile spanning thousands of pages produces a
// burst of TLB misses whose walks queue on the walker pool. How that
// pool and the TLB capacity are shared between cores is the subject of
// the paper's +DW / +DWT configurations.
package mmu

import (
	"fmt"

	"mnpusim/internal/clock"
)

// PageSize is a supported translation granule. The paper evaluates 4 KB
// (4-level walk), 64 KB (3-level), and 1 MB (2-level), based on ARM64
// granules.
type PageSize uint64

const (
	Page4K  PageSize = 4 << 10
	Page64K PageSize = 64 << 10
	Page1M  PageSize = 1 << 20
)

// Shift returns log2 of the page size.
func (p PageSize) Shift() uint {
	s := uint(0)
	for v := uint64(p); v > 1; v >>= 1 {
		s++
	}
	return s
}

// WalkLevels returns the number of page-table levels (and therefore
// memory accesses per full walk) for the granule.
func (p PageSize) WalkLevels() int {
	switch {
	case p >= Page1M:
		return 2
	case p >= Page64K:
		return 3
	default:
		return 4
	}
}

func (p PageSize) String() string {
	switch {
	case p >= 1<<20:
		return fmt.Sprintf("%dMB", uint64(p)>>20)
	default:
		return fmt.Sprintf("%dKB", uint64(p)>>10)
	}
}

// WalkMemoryModel selects how a page-table walker's PTE accesses are
// timed.
type WalkMemoryModel uint8

const (
	// FixedWalkLatency charges WalkLatencyPerLevel global cycles per
	// level while the walker is held. This matches the NeuMMU-derived
	// PTW model the paper adopts: translation performance is governed
	// by walker bandwidth, not by data-queue contention on PTE reads.
	// It is the default.
	FixedWalkLatency WalkMemoryModel = iota
	// DRAMBackedWalks issues each level's PTE read as a real DRAM
	// transaction that contends with data traffic. Used by the walk
	// ablation benchmark.
	DRAMBackedWalks
)

func (m WalkMemoryModel) String() string {
	if m == DRAMBackedWalks {
		return "dram-backed"
	}
	return "fixed-latency"
}

// WalkerSharePolicy selects the walker-pool sharing mechanism.
type WalkerSharePolicy uint8

const (
	// PoolBounds grants walkers FCFS subject to per-core min/max
	// bounds (static partitions and fully dynamic sharing).
	PoolBounds WalkerSharePolicy = iota
	// DWSStealing grants home walkers first and steals idle foreign
	// walkers only from cores with no pending walks.
	DWSStealing
)

func (p WalkerSharePolicy) String() string {
	if p == DWSStealing {
		return "dws-stealing"
	}
	return "pool-bounds"
}

// Config describes the MMU of one multi-core NPU package.
type Config struct {
	Cores    int
	PageSize PageSize

	// WalkLevels overrides the number of page-table levels derived
	// from PageSize. Scaled-down systems shrink the page size along
	// with everything else (so pages-per-tile stays in the paper's
	// regime); the override keeps the 4KB/64KB/1MB walk depths (4/3/2)
	// for their scaled stand-ins. Zero derives from PageSize.
	WalkLevels int

	// TLBEntriesPerCore and TLBAssoc size the TLB. Under a shared TLB
	// the capacities of all cores merge into one structure (entries =
	// Cores * TLBEntriesPerCore); otherwise each core owns a private
	// TLB of TLBEntriesPerCore.
	TLBEntriesPerCore int
	TLBAssoc          int
	SharedTLB         bool

	// WalkersPerCore sizes the walker pool: total = Cores *
	// WalkersPerCore. WalkerMin/WalkerMax bound how many walkers each
	// core may hold concurrently (misc_config's shared-partition
	// options). Equal static partitioning sets min=max=WalkersPerCore;
	// fully dynamic sharing sets min=0, max=total. Nil slices default
	// to fully dynamic when SharedPTW, else equal static.
	WalkersPerCore int
	SharedPTW      bool
	WalkerMin      []int
	WalkerMax      []int

	// WalkerPolicy selects how the walker pool is shared. The zero
	// value (PoolBounds) uses WalkerMin/WalkerMax with global-FCFS
	// grants — the paper's static/dynamic schemes. DWSStealing models
	// the dynamic page-walk stealing of Pratheek et al. (DWS, HPCA'21)
	// discussed in §2.2: each core owns WalkersPerCore home walkers and
	// may steal an idle foreign walker only while its owner has no
	// queued walks.
	WalkerPolicy WalkerSharePolicy

	// WalkMemory selects how page-table-walk accesses are timed.
	WalkMemory WalkMemoryModel
	// WalkLatencyPerLevel is the cost of one page-table level in
	// global cycles under FixedWalkLatency (a full 4-level walk takes
	// 4x this). NeuMMU-style designs hide PTE fetches behind walk
	// caches and MSHRs, so the walk cost is near-constant; what the
	// paper varies and studies is walker *bandwidth* (the pool size),
	// not per-walk latency. Zero selects the default of 50.
	WalkLatencyPerLevel int

	// TLBPortsPerCycle bounds translations started per core per cycle.
	TLBPortsPerCycle int
	// MaxPendingWalks bounds distinct in-flight walks per core (MSHR
	// count); further misses to new pages stall at the front-end.
	MaxPendingWalks int

	// Disabled bypasses translation entirely (used by the paper's
	// bandwidth-partitioning study, which removes address translation
	// to isolate DRAM effects). Requests are forwarded with a direct
	// virtual-to-physical mapping at zero cost.
	Disabled bool
}

// Validate checks structural sanity.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("mmu: Cores must be positive, got %d", c.Cores)
	}
	switch c.PageSize {
	case Page4K, Page64K, Page1M:
	default:
		if c.PageSize == 0 || uint64(c.PageSize)&(uint64(c.PageSize)-1) != 0 {
			return fmt.Errorf("mmu: PageSize must be a power of two, got %d", c.PageSize)
		}
	}
	if c.WalkLevels < 0 || c.WalkLevels > 8 {
		return fmt.Errorf("mmu: WalkLevels must be in [0,8], got %d", c.WalkLevels)
	}
	if c.Disabled {
		return nil
	}
	if c.TLBEntriesPerCore <= 0 || c.TLBAssoc <= 0 {
		return fmt.Errorf("mmu: TLB geometry must be positive (entries=%d assoc=%d)", c.TLBEntriesPerCore, c.TLBAssoc)
	}
	if c.TLBEntriesPerCore%c.TLBAssoc != 0 {
		return fmt.Errorf("mmu: TLB entries (%d) must be a multiple of associativity (%d)", c.TLBEntriesPerCore, c.TLBAssoc)
	}
	if c.WalkersPerCore <= 0 {
		return fmt.Errorf("mmu: WalkersPerCore must be positive, got %d", c.WalkersPerCore)
	}
	if c.TLBPortsPerCycle <= 0 {
		return fmt.Errorf("mmu: TLBPortsPerCycle must be positive, got %d", c.TLBPortsPerCycle)
	}
	if c.MaxPendingWalks <= 0 {
		return fmt.Errorf("mmu: MaxPendingWalks must be positive, got %d", c.MaxPendingWalks)
	}
	if c.WalkLatencyPerLevel < 0 {
		return fmt.Errorf("mmu: WalkLatencyPerLevel must be non-negative, got %d", c.WalkLatencyPerLevel)
	}
	if c.WalkerMin != nil && len(c.WalkerMin) != c.Cores {
		return fmt.Errorf("mmu: WalkerMin length %d != Cores %d", len(c.WalkerMin), c.Cores)
	}
	if c.WalkerMax != nil && len(c.WalkerMax) != c.Cores {
		return fmt.Errorf("mmu: WalkerMax length %d != Cores %d", len(c.WalkerMax), c.Cores)
	}
	return nil
}

// EffectiveWalkLatency resolves the per-level walk cost, a duration on
// the global clock.
func (c Config) EffectiveWalkLatency() clock.Global {
	if c.WalkLatencyPerLevel > 0 {
		return clock.Global(c.WalkLatencyPerLevel)
	}
	return 50
}

// TotalWalkers returns the size of the walker pool.
func (c Config) TotalWalkers() int { return c.Cores * c.WalkersPerCore }

// EffectiveWalkerBounds resolves WalkerMin/WalkerMax to concrete
// per-core bounds.
func (c Config) EffectiveWalkerBounds() (min, max []int) {
	total := c.TotalWalkers()
	min = make([]int, c.Cores)
	max = make([]int, c.Cores)
	for i := 0; i < c.Cores; i++ {
		if c.WalkerMin != nil {
			min[i] = c.WalkerMin[i]
		} else if !c.SharedPTW {
			min[i] = c.WalkersPerCore
		}
		if c.WalkerMax != nil {
			max[i] = c.WalkerMax[i]
		} else if c.SharedPTW {
			max[i] = total
		} else {
			max[i] = c.WalkersPerCore
		}
	}
	return min, max
}
