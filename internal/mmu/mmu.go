package mmu

import (
	"fmt"
	"math/bits"

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

// mshrEntry holds the requests waiting on one pending walk. A walk's
// completion hands them on and returns the entry, its waiter slice
// kept, to the MMU's free list.
type mshrEntry struct {
	waiters []*mem.Request
}

// MMU is the memory-management unit shared by the cores of one NPU
// package. It owns the TLB(s), the page-table walker pool, and each
// core's page table, and forwards translated requests to the Backend.
type MMU struct {
	cfg     Config
	backend Backend

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

	// Retired walk jobs and MSHR entries, reused by the next walk and
	// the next miss on a new page: once the MMU is warm, translation
	// allocates nothing.
	freeJobs    []*walkJob
	freeEntries []*mshrEntry

	// issueQ[core] holds translated requests awaiting DRAM admission.
	issueQ  []mem.Queue
	rrNext  int
	blocked []bool // reused by every tick's drain, indexed by core

	// window[core*chs+ch] has bit i set iff the request at index i of
	// core's issue queue is in the drain window (i < drainWindow) and
	// routes to backend channel ch. The MMU may drain iff some window
	// request's channel has space; while none has, it sleeps, and each
	// slept cycle owes the backend one refusal per window request on
	// that request's channel: what a drain on that cycle would have
	// counted. settled is the first cycle not yet paid for.
	window  []uint32
	chs     int
	space   []bool // reused by drainOne, indexed by channel
	settled clock.Global

	// Per-cycle TLB port accounting.
	portCycle clock.Global
	portUsed  []int

	// obs, if non-nil, receives structured probe events (TLB hit/miss,
	// MSHR alloc/free, walk start/end). Observation never alters
	// translation behavior.
	obs obs.Sink

	// OnMSHRFreed, if non-nil, is called when a walk completion takes
	// core's MSHR from full to not full: the moment a request Submit
	// refused with mem.MSHRFull can be taken.
	OnMSHRFreed func(now clock.Global, core int)

	stats []CoreStats
}

// New builds an MMU. tables must hold one page table per core (they
// embody the cores' address spaces and physical allocators).
func New(cfg Config, backend Backend, tables []*PageTable) (*MMU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(tables) != cfg.Cores {
		return nil, fmt.Errorf("mmu: got %d page tables for %d cores", len(tables), cfg.Cores)
	}
	m := &MMU{
		cfg:       cfg,
		backend:   backend,
		tables:    tables,
		mshr:      make([]map[uint64]*mshrEntry, cfg.Cores),
		queued:    make([]int, cfg.Cores),
		issueQ:    make([]mem.Queue, cfg.Cores),
		blocked:   make([]bool, cfg.Cores),
		window:    make([]uint32, cfg.Cores*backend.Channels()),
		chs:       backend.Channels(),
		space:     make([]bool, backend.Channels()),
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
// engine at the current global cycle. A refusal says why: the core's
// TLB ports are used up this cycle (retry next cycle), or the request
// needs a walk and the core's pending-walk limit is reached (retry
// once one of the core's walks completes; OnMSHRFreed announces it).
//
//lint:allow wakecontract audited stimulus seam: under the event kernel every core submits through sim.wakeSubmitter, which re-arms the MMU at its post-submit NextEventAfter on admission; a sleeping MMU settles its refusals before the submit changes an issue queue (push)
func (m *MMU) Submit(now clock.Global, r *mem.Request) mem.Admission {
	core := r.Core
	if m.cfg.Disabled {
		r.Addr = m.tables[core].Translate(r.VAddr)
		m.push(now, core, r)
		m.stats[core].Translations++
		return mem.Admitted
	}
	if m.portCycle != now {
		m.portCycle = now
		for i := range m.portUsed {
			m.portUsed[i] = 0
		}
	}
	if m.portUsed[core] >= m.cfg.TLBPortsPerCycle {
		m.stats[core].PortStalls++
		return mem.PortsBusy
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
		return mem.Admitted
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
		return mem.Admitted
	}
	// Miss on a new page: need an MSHR slot and a queued walk.
	if m.MSHRFull(core) {
		// The speculative Lookup above already counted a miss; undo
		// our acceptance by not consuming a port and reporting the
		// stall. The re-submitted request will probe again.
		m.stats[core].MSHRStalls++
		return mem.MSHRFull
	}
	m.portUsed[core]++
	m.stats[core].Translations++
	m.stats[core].TLBMisses++
	e := m.newEntry()
	e.waiters = append(e.waiters, r)
	m.mshr[core][vpn] = e
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
	return mem.Admitted
}

// MSHRFull reports whether core's pending-walk limit is reached, so
// that Submit refuses any request of core that needs a new walk. Only
// the completion of one of core's own walks can end it.
func (m *MMU) MSHRFull(core int) bool { return len(m.mshr[core]) >= m.cfg.MaxPendingWalks }

// ChargeMSHRStalls counts n refusals for a full MSHR against core: the
// re-submissions of cycles a core slept through because they could only
// be refused. Each would have probed, and missed, the TLB serving core
// (Submit's speculative Lookup), so each also counts one miss there.
// The TLB's LRU clock is not advanced: eviction compares its stamps
// only by order, which skipped increments keep.
func (m *MMU) ChargeMSHRStalls(core int, n int64) {
	m.stats[core].MSHRStalls += n
	m.tlbFor(core).misses += n
}

// push appends a translated request to core's issue queue, marking it
// in its channel's window mask if it lands inside the drain window.
// The refusals owed for cycles slept before this change are settled
// first.
func (m *MMU) push(now clock.Global, core int, r *mem.Request) {
	m.settle(now + 1)
	q := &m.issueQ[core]
	q.Push(r)
	if n := q.Len(); n <= drainWindow {
		m.window[core*m.chs+m.backend.Route(r)] |= 1 << (n - 1)
	}
}

// remove takes the request at index i out of core's issue queue. Every
// window mask of core drops bit i and shifts the bits above it down one
// place; the request that slides into the window's last place is
// marked on its channel.
func (m *MMU) remove(core, i int) {
	q := &m.issueQ[core]
	q.RemoveAt(i)
	low := uint32(1)<<i - 1
	win := m.window[core*m.chs : (core+1)*m.chs]
	for ch, w := range win {
		win[ch] = w&low | (w>>1)&^low
	}
	if q.Len() >= drainWindow {
		win[m.backend.Route(q.At(drainWindow-1))] |= 1 << (drainWindow - 1)
	}
}

// windowed returns the number of drain-window requests, over all
// cores, routed to channel ch.
func (m *MMU) windowed(ch int) int64 {
	n := 0
	for i := ch; i < len(m.window); i += m.chs {
		n += bits.OnesCount32(m.window[i])
	}
	return int64(n)
}

// settle pays the backend the refusals of cycles [settled, upto): each
// is a cycle the MMU slept through with every drain-window request's
// channel full, on which a drain would have tried, and been refused,
// once per window request.
func (m *MMU) settle(upto clock.Global) {
	if upto <= m.settled {
		return
	}
	n := (upto - m.settled).Int64()
	for ch := 0; ch < m.chs; ch++ {
		if k := m.windowed(ch); k > 0 {
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
		job := m.newJob(wr.core, wr.vpn, now, owner)
		job.ppn, job.pteAddrs = m.tables[wr.core].Walk(wr.vpn, job.pteAddrs)
		if m.cfg.WalkMemory == FixedWalkLatency {
			job.readyAt = now + clock.Global(len(job.pteAddrs))*m.cfg.EffectiveWalkLatency()
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
			job.read = mem.Request{
				Core:  job.core,
				Addr:  job.pteAddrs[job.level],
				VAddr: job.vpn << m.cfg.PageSize.Shift(),
				Size:  8,
				Kind:  mem.Read,
				Class: mem.PageTable,
			}
			job.pte = &job.read
		}
		if m.backend.HasSpace(m.backend.Route(job.pte)) && m.backend.Enqueue(now, job.pte) {
			job.waiting = true
		}
		out = append(out, job)
	}
	m.active = out
}

// ReadDone retires a page-table read the backend completed: the walk
// that issued it moves on to its next level, whose read the next tick
// issues. The backend's completion hook calls it, and the kernel then
// wakes the MMU on the completion cycle.
func (m *MMU) ReadDone(r *mem.Request) {
	for _, job := range m.active {
		if job.pte == r {
			job.pte = nil
			job.waiting = false
			job.level++
			return
		}
	}
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
		full := m.MSHRFull(job.core)
		delete(m.mshr[job.core], job.vpn)
		clear(e.waiters)
		e.waiters = e.waiters[:0]
		m.freeEntries = append(m.freeEntries, e)
		if full && m.OnMSHRFreed != nil {
			m.OnMSHRFreed(now, job.core)
		}
	}
	if m.obs != nil {
		m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindWalkEnd, Core: int32(job.core), A: int64(job.vpn), B: lat})
		m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindMSHRFree, Core: int32(job.core), A: int64(len(m.mshr[job.core]))})
	}
	m.freeJobs = append(m.freeJobs, job)
}

// newJob returns a walk job for core's vpn, granted at now to a walker
// of owner, reusing a retired job and its PTE address slice.
func (m *MMU) newJob(core int, vpn uint64, now clock.Global, owner int) *walkJob {
	var job *walkJob
	if n := len(m.freeJobs); n > 0 {
		job = m.freeJobs[n-1]
		m.freeJobs = m.freeJobs[:n-1]
	} else {
		job = new(walkJob)
	}
	*job = walkJob{core: core, vpn: vpn, pteAddrs: job.pteAddrs[:0], startedAt: now, owner: owner}
	return job
}

// newEntry returns an empty MSHR entry, reusing a retired one.
func (m *MMU) newEntry() *mshrEntry {
	if n := len(m.freeEntries); n > 0 {
		e := m.freeEntries[n-1]
		m.freeEntries = m.freeEntries[:n-1]
		return e
	}
	return new(mshrEntry)
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
// core's issue queue into the backend. It asks each channel with window
// requests once whether it has space, and offers the backend only the
// window requests of channels that do, oldest first. A window request
// on a full channel is not offered: the backend would refuse it, so
// drainOne charges that refusal arithmetically (ChargeRefusals, the
// awake twin of settle) for every such request older than the one
// admitted, or for all of them when none is.
func (m *MMU) drainOne(now clock.Global, core int) bool {
	win := m.window[core*m.chs : (core+1)*m.chs]
	var open uint32 // window positions whose channel has space
	for ch, w := range win {
		m.space[ch] = w != 0 && m.backend.HasSpace(ch)
		if m.space[ch] {
			open |= w
		}
	}
	q := &m.issueQ[core]
	from := 0 // window positions below from are charged or offered
	for open != 0 {
		i := bits.TrailingZeros32(open)
		open &= open - 1
		m.chargeFull(win, below(i)&^below(from))
		from = i + 1
		if m.backend.Enqueue(now, q.At(i)) {
			m.remove(core, i)
			return true
		}
	}
	m.chargeFull(win, ^below(from))
	return false
}

// chargeFull charges one refusal for every window position in mask
// whose channel drainOne found full.
func (m *MMU) chargeFull(win []uint32, mask uint32) {
	for ch, w := range win {
		if m.space[ch] {
			continue
		}
		if n := bits.OnesCount32(w & mask); n > 0 {
			m.backend.ChargeRefusals(ch, int64(n))
		}
	}
}

// below returns the mask of window positions before i.
func below(i int) uint32 { return uint32(1)<<i - 1 }

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
	for ch := 0; ch < m.chs; ch++ {
		if m.windowed(ch) > 0 && m.backend.HasSpace(ch) {
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
