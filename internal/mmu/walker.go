package mmu

import (
	"mnpusim/internal/clock"
	"mnpusim/internal/invariant"
	"mnpusim/internal/mem"
)

// walkJob tracks one in-flight page-table walk. The walker issues one
// PTE read per level, serially — level i+1's node address depends on the
// PTE fetched at level i — so a full walk costs `levels` dependent DRAM
// round-trips. The MMU reuses a job once its walk completes.
type walkJob struct {
	core int
	vpn  uint64
	ppn  uint64
	// pteAddrs holds the PTE addresses the walk reads, one per level;
	// a fixed-latency walk costs their count times the per-level
	// latency. The slice is kept when the job is reused.
	pteAddrs  []uint64
	level     int // next level to issue (DRAM-backed mode)
	waiting   bool
	startedAt clock.Global
	// readyAt is the completion cycle under FixedWalkLatency.
	readyAt clock.Global
	// pte points at read, the level's PTE read (DRAM-backed mode),
	// built once per level and kept while its channel is full and
	// while it is in flight (waiting), so ReadDone can find its walk;
	// nil between levels.
	pte  *mem.Request
	read mem.Request
	// owner is the home core of the walker servicing this job (equals
	// core except under DWS stealing).
	owner int
}

// walkRequest is a queued walk awaiting a free walker.
type walkRequest struct {
	core int
	vpn  uint64
	at   clock.Global
}

// walkerPool manages the shared or partitioned page-table walkers.
//
// Each core holds at least min[i] walkers in reserve and may occupy at
// most max[i] concurrently. Equal static partitioning is min=max=k;
// fully dynamic sharing is min=0, max=total. The pool grants walkers to
// queued walks in global arrival order (first-come-first-served, as the
// paper specifies for all shared resources), skipping cores that are at
// their bound.
type walkerPool struct {
	total int
	min   []int
	max   []int
	inUse []int
	free  int
}

func newWalkerPool(total int, min, max []int) *walkerPool {
	reserved := 0
	for _, m := range min {
		reserved += m
	}
	if reserved > total {
		//lint:allow nolibpanic bounds come from mmu.Config.Validate-checked walker counts; reaching here is a programming error
		panic("mmu: walker reservations exceed pool size")
	}
	return &walkerPool{
		total: total,
		min:   min,
		max:   max,
		inUse: make([]int, len(min)),
		free:  total,
	}
}

// canGrab reports whether core may take one more walker: it must be
// under its own cap, and granting it must not eat into another core's
// unfilled reservation.
func (p *walkerPool) canGrab(core int) bool {
	if p.free <= 0 || p.inUse[core] >= p.max[core] {
		return false
	}
	reservedElsewhere := 0
	for j := range p.min {
		if j == core && p.inUse[j] < p.min[j] {
			// Core is drawing on its own reservation; always allowed.
			return true
		}
		if j != core && p.inUse[j] < p.min[j] {
			reservedElsewhere += p.min[j] - p.inUse[j]
		}
	}
	return p.free-reservedElsewhere > 0
}

func (p *walkerPool) grab(core int) {
	p.inUse[core]++
	p.free--
}

func (p *walkerPool) release(core int) {
	p.inUse[core]--
	p.free++
	if invariant.Enabled {
		invariant.Check(p.inUse[core] >= 0 && p.free <= p.total,
			"mmu: walker pool accounting corrupted (double release?) core=%d inUse=%d free=%d total=%d",
			core, p.inUse[core], p.free, p.total)
	}
}

// InUse returns the walkers currently held by core.
func (p *walkerPool) InUse(core int) int { return p.inUse[core] }

// Free returns the number of idle walkers.
func (p *walkerPool) Free() int { return p.free }

// dwsPool implements the DWSStealing walker policy: each core owns a
// fixed set of home walkers; a core with all home walkers busy may
// borrow an idle foreign walker, but only while that walker's owner has
// no walks waiting — so an owner's burst reclaims its walkers as soon
// as borrowed ones complete.
type dwsPool struct {
	freeHome []int
	perCore  int
}

func newDWSPool(cores, perCore int) *dwsPool {
	p := &dwsPool{freeHome: make([]int, cores), perCore: perCore}
	for i := range p.freeHome {
		p.freeHome[i] = perCore
	}
	return p
}

// pick returns the home owner of the walker core would be granted,
// given each core's pending walk count: its own if one is free, else an
// idle foreign walker whose owner has no walks waiting.
func (p *dwsPool) pick(core int, pending []int) (owner int, ok bool) {
	if p.freeHome[core] > 0 {
		return core, true
	}
	for o := range p.freeHome {
		if o != core && p.freeHome[o] > 0 && pending[o] == 0 {
			return o, true
		}
	}
	return 0, false
}

// grab acquires a walker for core given each core's pending walk count;
// it returns the home owner of the granted walker.
func (p *dwsPool) grab(core int, pending []int) (owner int, ok bool) {
	owner, ok = p.pick(core, pending)
	if ok {
		p.freeHome[owner]--
	}
	return owner, ok
}

func (p *dwsPool) release(owner int) {
	p.freeHome[owner]++
	if invariant.Enabled {
		invariant.Check(p.freeHome[owner] <= p.perCore,
			"mmu: dws pool accounting corrupted (double release?) owner=%d free=%d perCore=%d",
			owner, p.freeHome[owner], p.perCore)
	}
}

// Free returns the number of idle walkers.
func (p *dwsPool) Free() int {
	n := 0
	for _, f := range p.freeHome {
		n += f
	}
	return n
}
