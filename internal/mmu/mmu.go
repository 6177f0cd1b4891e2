package mmu

import (
	"fmt"

	"mnpusim/internal/clock"
	"mnpusim/internal/invariant"
	"mnpusim/internal/mem"
	"mnpusim/internal/obs"
)

// Backend is the memory system the MMU issues physical requests into;
// *dram.Memory satisfies it. Requests route to one of Channels()
// admission queues.
type Backend interface {
	Channels() int
	// Route returns the channel r maps to, decoding it at most once per
	// request.
	Route(r *mem.Request) int
	// HasSpace reports whether channel ch would admit a request now.
	HasSpace(ch int) bool
	// Enqueue admits r, or refuses it (and counts one refusal on its
	// channel) when its channel is full.
	Enqueue(now clock.Global, r *mem.Request) bool
	// ChargeRefusals counts n refusals on channel ch: the tries of
	// cycles the MMU slept through because they could only be refused.
	ChargeRefusals(ch int, n int64)
}

// CoreStats aggregates per-core translation counters.
type CoreStats struct {
	Translations    int64
	TLBHits         int64
	TLBMisses       int64
	CoalescedMisses int64
	Walks           int64
	WalkCycles      int64 // sum of walk latencies (global cycles)
	MaxWalkCycles   int64
	PortStalls      int64 // Submit rejections: TLB ports exhausted
	MSHRStalls      int64 // Submit rejections: pending-walk limit
}

// AvgWalkCycles returns the mean walk latency.
func (s CoreStats) AvgWalkCycles() float64 {
	if s.Walks == 0 {
		return 0
	}
	return float64(s.WalkCycles) / float64(s.Walks)
}

type mshrEntry struct {
	waiters []*mem.Request
}

// MMU is the memory-management unit shared by the cores of one NPU
// package. It owns the TLB(s), the page-table walker pool, and each
// core's page table, and forwards translated requests to the Backend.
type MMU struct {
	cfg     Config
	backend Backend
	ids     *mem.IDAllocator

	tlbs   []*TLB // one if shared, else per core
	tables []*PageTable

	pool     *walkerPool
	dws      *dwsPool
	walkFIFO []walkRequest
	queued   []int // queued[core]: core's walks in walkFIFO
	active   []*walkJob

	// mshr[core] maps a VPN with a pending walk to its waiting
	// requests.
	mshr []map[uint64]*mshrEntry

	// issueQ[core] holds translated requests awaiting DRAM admission.
	issueQ  []mem.Queue
	rrNext  int
	blocked []bool // reused by every tick's drain, indexed by core

	// parked[ch] counts drain-window requests (the first drainWindow of
	// each core's issue queue) routed to backend channel ch. The MMU
	// may drain iff one of those channels has space; while none has,
	// it sleeps, and each slept cycle owes the backend parked[ch]
	// refusals on every channel: what a drain on that cycle would have
	// counted. settled is the first cycle not yet paid for.
	parked  []int64
	settled clock.Global

	// Per-cycle TLB port accounting.
	portCycle clock.Global
	portUsed  []int

	// obs, if non-nil, receives structured probe events (TLB hit/miss,
	// MSHR alloc/free, walk start/end). Observation never alters
	// translation behavior.
	obs obs.Sink

	stats []CoreStats
}

// New builds an MMU. tables must hold one page table per core (they
// embody the cores' address spaces and physical allocators).
func New(cfg Config, backend Backend, tables []*PageTable, ids *mem.IDAllocator) (*MMU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(tables) != cfg.Cores {
		return nil, fmt.Errorf("mmu: got %d page tables for %d cores", len(tables), cfg.Cores)
	}
	m := &MMU{
		cfg:       cfg,
		backend:   backend,
		ids:       ids,
		tables:    tables,
		mshr:      make([]map[uint64]*mshrEntry, cfg.Cores),
		queued:    make([]int, cfg.Cores),
		issueQ:    make([]mem.Queue, cfg.Cores),
		blocked:   make([]bool, cfg.Cores),
		parked:    make([]int64, backend.Channels()),
		portUsed:  make([]int, cfg.Cores),
		portCycle: -1,
		stats:     make([]CoreStats, cfg.Cores),
	}
	for i := range m.mshr {
		m.mshr[i] = make(map[uint64]*mshrEntry)
	}
	if !cfg.Disabled {
		if cfg.SharedTLB {
			m.tlbs = []*TLB{NewTLB(cfg.TLBEntriesPerCore*cfg.Cores, cfg.TLBAssoc)}
		} else {
			m.tlbs = make([]*TLB, cfg.Cores)
			for i := range m.tlbs {
				m.tlbs[i] = NewTLB(cfg.TLBEntriesPerCore, cfg.TLBAssoc)
			}
		}
		if cfg.WalkerPolicy == DWSStealing {
			m.dws = newDWSPool(cfg.Cores, cfg.WalkersPerCore)
		} else {
			min, max := cfg.EffectiveWalkerBounds()
			m.pool = newWalkerPool(cfg.TotalWalkers(), min, max)
		}
	}
	return m, nil
}

// MustNew is New, panicking on error.
func MustNew(cfg Config, backend Backend, tables []*PageTable, ids *mem.IDAllocator) *MMU {
	m, err := New(cfg, backend, tables, ids)
	if err != nil {
		panic(err)
	}
	return m
}

func (m *MMU) tlbFor(core int) *TLB {
	if m.cfg.SharedTLB {
		return m.tlbs[0]
	}
	return m.tlbs[core]
}

// TLBFor exposes the TLB serving core, for instrumentation.
func (m *MMU) TLBFor(core int) *TLB { return m.tlbFor(core) }

// SetObs attaches a probe-event sink; nil detaches it.
func (m *MMU) SetObs(s obs.Sink) { m.obs = s }

// Stats returns a snapshot of core's counters.
func (m *MMU) Stats(core int) CoreStats { return m.stats[core] }

// Submit accepts a virtually addressed Data request from core's DMA
// engine at the current global cycle. It returns false if the MMU
// cannot take the request this cycle (TLB ports exhausted or the
// pending-walk limit reached for a new page); the caller retries later.
//
//lint:allow wakecontract audited stimulus seam: under the event kernel every core submits through sim.wakeSubmitter, which re-arms the MMU at its post-submit NextEventAfter on success; a sleeping MMU settles its refusals before the submit changes an issue queue (push)
func (m *MMU) Submit(now clock.Global, r *mem.Request) bool {
	core := r.Core
	if m.cfg.Disabled {
		r.Addr = m.tables[core].Translate(r.VAddr)
		m.push(now, core, r)
		m.stats[core].Translations++
		return true
	}
	if m.portCycle != now {
		m.portCycle = now
		for i := range m.portUsed {
			m.portUsed[i] = 0
		}
	}
	if m.portUsed[core] >= m.cfg.TLBPortsPerCycle {
		m.stats[core].PortStalls++
		return false
	}
	vpn := r.VAddr >> m.cfg.PageSize.Shift()
	if e, ok := m.mshr[core][vpn]; ok {
		// A walk for this page is already pending: coalesce.
		m.portUsed[core]++
		m.stats[core].Translations++
		m.stats[core].TLBMisses++
		m.stats[core].CoalescedMisses++
		e.waiters = append(e.waiters, r)
		if m.obs != nil {
			m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindTLBMiss, Core: int32(core), A: 1})
		}
		return true
	}
	if ppn, ok := m.tlbFor(core).Lookup(core, vpn); ok {
		m.portUsed[core]++
		m.stats[core].Translations++
		m.stats[core].TLBHits++
		r.Addr = ppn | (r.VAddr & (uint64(m.cfg.PageSize) - 1))
		m.push(now, core, r)
		if m.obs != nil {
			m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindTLBHit, Core: int32(core)})
		}
		return true
	}
	// Miss on a new page: need an MSHR slot and a queued walk.
	if len(m.mshr[core]) >= m.cfg.MaxPendingWalks {
		// The speculative Lookup above already counted a miss; undo
		// our acceptance by not consuming a port and reporting the
		// stall. The re-submitted request will probe again.
		m.stats[core].MSHRStalls++
		return false
	}
	m.portUsed[core]++
	m.stats[core].Translations++
	m.stats[core].TLBMisses++
	m.mshr[core][vpn] = &mshrEntry{waiters: []*mem.Request{r}}
	m.walkFIFO = append(m.walkFIFO, walkRequest{core: core, vpn: vpn, at: now})
	m.queued[core]++
	if m.obs != nil {
		m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindTLBMiss, Core: int32(core)})
		m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindMSHRAlloc, Core: int32(core), A: int64(len(m.mshr[core]))})
	}
	if invariant.Enabled {
		invariant.Check(len(m.mshr[core]) <= m.cfg.MaxPendingWalks,
			"mmu: MSHR leak: core %d holds %d entries, limit %d", core, len(m.mshr[core]), m.cfg.MaxPendingWalks)
	}
	return true
}

// push appends a translated request to core's issue queue. A request
// that lands inside the drain window is parked on its channel; the
// refusals owed for cycles slept before this change are settled first.
func (m *MMU) push(now clock.Global, core int, r *mem.Request) {
	m.settle(now + 1)
	q := &m.issueQ[core]
	q.Push(r)
	if q.Len() <= drainWindow {
		m.parked[m.backend.Route(r)]++
	}
}

// settle pays the backend the refusals of cycles [settled, upto): each
// is a cycle the MMU slept through with every drain-window request's
// channel full, on which a drain would have tried, and been refused,
// once per parked request.
func (m *MMU) settle(upto clock.Global) {
	if upto <= m.settled {
		return
	}
	n := (upto - m.settled).Int64()
	for ch, k := range m.parked {
		if k > 0 {
			m.backend.ChargeRefusals(ch, k*n)
		}
	}
	m.settled = upto
}

// Tick advances the MMU by one global cycle: dispatch queued walks to
// free walkers, progress active walks, and drain translated requests
// into the backend. Cycles slept since the last tick are settled
// first; this cycle's refusals are the drain's own.
func (m *MMU) Tick(now clock.Global) {
	m.settle(now)
	m.settled = now + 1
	if !m.cfg.Disabled {
		m.dispatchWalks(now)
		m.progressWalks(now)
	}
	m.drainIssueQueues(now)
}

// dispatchWalks grants walkers to queued walks in arrival order,
// skipping cores that cannot take a walker right now (they keep their
// queue position).
func (m *MMU) dispatchWalks(now clock.Global) {
	if len(m.walkFIFO) == 0 {
		return
	}
	remaining := m.walkFIFO[:0]
	for i, wr := range m.walkFIFO {
		if m.freeWalkers() == 0 {
			remaining = append(remaining, m.walkFIFO[i:]...)
			break
		}
		owner := wr.core
		if m.dws != nil {
			// The DWS policy's "owner has no queued walks" condition
			// reads queued, which a walk leaves as it is granted.
			o, ok := m.dws.grab(wr.core, m.queued)
			if !ok {
				remaining = append(remaining, wr)
				continue
			}
			owner = o
		} else {
			if !m.pool.canGrab(wr.core) {
				remaining = append(remaining, wr)
				continue
			}
			m.pool.grab(wr.core)
		}
		m.queued[wr.core]--
		ppn, ptes := m.tables[wr.core].Walk(wr.vpn)
		job := &walkJob{core: wr.core, vpn: wr.vpn, ppn: ppn, pteAddrs: ptes, startedAt: now, owner: owner}
		if m.cfg.WalkMemory == FixedWalkLatency {
			job.readyAt = now + clock.Global(len(ptes))*m.cfg.EffectiveWalkLatency()
		}
		m.active = append(m.active, job)
		if m.obs != nil {
			m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindWalkStart, Core: int32(wr.core), A: int64(wr.vpn), B: int64(owner)})
		}
	}
	m.walkFIFO = remaining
}

func (m *MMU) freeWalkers() int {
	if m.dws != nil {
		return m.dws.Free()
	}
	return m.pool.Free()
}

// progressWalks advances every active walk: under FixedWalkLatency it
// completes walks whose deadline has passed; under DRAMBackedWalks it
// issues the next dependent PTE read for every walker that is not
// waiting on DRAM.
func (m *MMU) progressWalks(now clock.Global) {
	out := m.active[:0]
	for _, job := range m.active {
		if m.cfg.WalkMemory == FixedWalkLatency {
			if now >= job.readyAt {
				m.completeWalk(now, job)
			} else {
				out = append(out, job)
			}
			continue
		}
		if job.waiting {
			out = append(out, job)
			continue
		}
		if job.level >= len(job.pteAddrs) {
			m.completeWalk(now, job)
			continue
		}
		if job.pte == nil {
			j := job
			job.pte = &mem.Request{
				Core:  job.core,
				Addr:  job.pteAddrs[job.level],
				VAddr: job.vpn << m.cfg.PageSize.Shift(),
				Size:  8,
				Kind:  mem.Read,
				Class: mem.PageTable,
				Done: func(clock.Global, *mem.Request) {
					j.waiting = false
					j.level++
				},
			}
		}
		if !m.backend.HasSpace(m.backend.Route(job.pte)) {
			out = append(out, job)
			continue
		}
		job.pte.ID = m.ids.Next()
		if m.backend.Enqueue(now, job.pte) {
			job.waiting = true
			job.pte = nil
		}
		out = append(out, job)
	}
	m.active = out
}

func (m *MMU) completeWalk(now clock.Global, job *walkJob) {
	lat := (now - job.startedAt).Int64()
	st := &m.stats[job.core]
	st.Walks++
	st.WalkCycles += lat
	if lat > st.MaxWalkCycles {
		st.MaxWalkCycles = lat
	}
	m.tlbFor(job.core).Insert(job.core, job.vpn, job.ppn)
	if m.dws != nil {
		m.dws.release(job.owner)
	} else {
		m.pool.release(job.core)
	}
	e, ok := m.mshr[job.core][job.vpn]
	if invariant.Enabled {
		// A completed walk without an MSHR entry means the entry was
		// freed twice or the walk was dispatched without one (leak on
		// the other side); its waiters would hang forever.
		invariant.Check(ok, "mmu: walk completed with no MSHR entry (double free?) core=%d vpn=%#x", job.core, job.vpn)
		invariant.Check(!ok || len(e.waiters) > 0,
			"mmu: MSHR entry with no waiters core=%d vpn=%#x", job.core, job.vpn)
	}
	if ok {
		for _, r := range e.waiters {
			r.Addr = job.ppn | (r.VAddr & (uint64(m.cfg.PageSize) - 1))
			m.push(now, job.core, r)
		}
		delete(m.mshr[job.core], job.vpn)
	}
	if m.obs != nil {
		m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindWalkEnd, Core: int32(job.core), A: int64(job.vpn), B: lat})
		m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindMSHRFree, Core: int32(job.core), A: int64(len(m.mshr[job.core]))})
	}
}

// drainWindow bounds how far into a core's issue queue the drain looks
// for a request whose channel has space. After address decode, requests
// to different channels are independent, so one full channel must not
// block admission to the others (head-of-line blocking would
// systematically penalize shared-channel configurations, whose queue
// occupancies are burstier).
const drainWindow = 32

// drainIssueQueues forwards translated requests to the backend,
// round-robin across cores, while the backend accepts them. The
// rotation pointer advances per *grant*, not per cycle: when the memory
// system frees exactly one slot every k cycles and k is a multiple of
// the core count, per-cycle rotation would hand every slot to the same
// core forever (a parity lock a deterministic simulator cannot escape).
func (m *MMU) drainIssueQueues(now clock.Global) {
	n := m.cfg.Cores
	blocked := m.blocked
	clear(blocked)
	for {
		granted := false
		for i := 0; i < n; i++ {
			core := (m.rrNext + i) % n
			if blocked[core] || m.issueQ[core].Empty() {
				continue
			}
			if m.drainOne(now, core) {
				m.rrNext = (core + 1) % n
				granted = true
				break
			}
			blocked[core] = true
		}
		if !granted {
			return
		}
	}
}

// drainOne admits the oldest admissible request (within drainWindow) of
// core's issue queue into the backend; the request that slides into the
// window behind it is parked on its channel.
func (m *MMU) drainOne(now clock.Global, core int) bool {
	q := &m.issueQ[core]
	limit := min(q.Len(), drainWindow)
	for i := 0; i < limit; i++ {
		r := q.At(i)
		if m.backend.Enqueue(now, r) {
			q.RemoveAt(i)
			m.parked[m.backend.Route(r)]--
			if q.Len() >= drainWindow {
				m.parked[m.backend.Route(q.At(drainWindow-1))]++
			}
			return true
		}
	}
	return false
}

// NextEventAfter returns the earliest global cycle at which the MMU
// needs ticking. It is now+1 only if a tick could change something: a
// queued walk can get a walker, a drain-window request's channel has
// space, or a DRAM-backed walk's next PTE read can be admitted.
// Otherwise it is the earliest fixed-latency walk deadline, or
// FarFuture. What it sleeps on arrives as a stimulus: a freed DRAM
// slot (the kernel wakes the MMU in the cycle a full channel frees
// one), a PTE read's completion, or a Submit. A tick on a slept cycle
// could only have been refused; settle pays for those refusals.
func (m *MMU) NextEventAfter(now clock.Global) clock.Global {
	if m.canDispatch() || m.canDrain() {
		return now + 1
	}
	var next clock.Global = clock.FarFuture
	for _, job := range m.active {
		switch {
		case m.cfg.WalkMemory == FixedWalkLatency:
			if job.readyAt <= now {
				return now + 1
			}
			next = min(next, job.readyAt)
		case !job.waiting && (job.pte == nil || m.backend.HasSpace(m.backend.Route(job.pte))):
			return now + 1
		}
	}
	return next
}

// canDispatch reports whether dispatchWalks would grant a walker now:
// whether any core with a queued walk may take one.
func (m *MMU) canDispatch() bool {
	if len(m.walkFIFO) == 0 || m.freeWalkers() == 0 {
		return false
	}
	for core, n := range m.queued {
		if n == 0 {
			continue
		}
		if m.dws != nil {
			if _, ok := m.dws.pick(core, m.queued); ok {
				return true
			}
		} else if m.pool.canGrab(core) {
			return true
		}
	}
	return false
}

// canDrain reports whether some drain-window request's channel has
// space.
func (m *MMU) canDrain() bool {
	for ch, k := range m.parked {
		if k > 0 && m.backend.HasSpace(ch) {
			return true
		}
	}
	return false
}

// SkipTo settles the refusals of the cycles before now that the MMU
// slept through. Everything else it holds is absolute: port accounting
// is keyed to the cycle of the first Submit, and every walk deadline
// is a cycle.
func (m *MMU) SkipTo(now clock.Global) { m.settle(now) }

// Busy reports whether the MMU holds any pending work.
func (m *MMU) Busy() bool {
	if len(m.walkFIFO) > 0 || len(m.active) > 0 {
		return true
	}
	for i := range m.issueQ {
		if !m.issueQ[i].Empty() {
			return true
		}
	}
	return false
}

// PendingWalks returns the number of distinct outstanding walks for
// core (queued or active).
func (m *MMU) PendingWalks(core int) int { return len(m.mshr[core]) }

// WalkersInUse returns how many walkers core currently occupies. Under
// DWS stealing the notion is per-owner, so it reports the core's home
// walkers in use.
func (m *MMU) WalkersInUse(core int) int {
	if m.cfg.Disabled {
		return 0
	}
	if m.dws != nil {
		return m.cfg.WalkersPerCore - m.dws.freeHome[core]
	}
	return m.pool.InUse(core)
}
