package dram

import (
	"mnpusim/internal/clock"
	"mnpusim/internal/invariant"
	"mnpusim/internal/mem"
	"mnpusim/internal/obs"
)

// pending pairs a queued request with its decoded location and the
// facts the scheduler reads about it every cycle, decoded once on
// admission.
type pending struct {
	req    *mem.Request
	loc    Location
	bank   int  // per-channel bank index (Config.BankIndex)
	group  int  // rank*BankGroups+BankGroup: the tCCDL window it shares
	read   bool // req.Kind == mem.Read
	bypass int  // times a younger request was serviced first
}

// completion is a data transfer scheduled to finish in the future.
type completion struct {
	at  clock.Global
	req *mem.Request
}

// bank is the per-bank state machine. openRow == -1 means precharged.
type bank struct {
	openRow       int64 // row number, not a cycle; -1 when precharged
	nextActivate  clock.Global
	nextRead      clock.Global
	nextWrite     clock.Global
	nextPrecharge clock.Global
}

// channel is one memory controller plus its DRAM channel.
type channel struct {
	cfg   Config
	id    int
	dev   *Memory // retires completed bursts (Memory.complete)
	banks []bank

	queue       []pending
	completions []completion
	// ptQueued counts the page-table reads in queue. With none queued,
	// PTPriority cannot change pick's choice, so its scan stops at the
	// first row hit as it does without the priority.
	ptQueued int

	// Data-bus and CAS-spacing state.
	busFreeAt   clock.Global
	lastWasRead bool
	// nextCASGroup[rank*bankGroups+bg] enforces tCCDL within a bank
	// group; nextCASAny enforces tCCDS across groups.
	nextCASGroup []clock.Global
	nextCASAny   clock.Global

	// Activation spacing (tRRD, tFAW) per rank.
	lastActivate []clock.Global   // per rank
	actWindow    [][]clock.Global // per rank, last 4 activate cycles (ring)
	actWindowPos []int

	// Refresh state per rank.
	nextRefresh []clock.Global
	refreshing  []clock.Global // busy-until cycle; 0 when idle
	// due[rank] is refreshDue for the cycle pick is choosing at.
	due []bool

	// horizon caches horizonNow between ticks while horizonOK holds.
	// Only a tick changes the timers it reads; an admission can only
	// lower it, by the new request's earliestProgress.
	horizon   clock.Global
	horizonOK bool

	// lastTick tracks tick monotonicity under -tags=invariants.
	lastTick clock.Global

	// obs, if non-nil, receives the command-stream probe events (CAS
	// issue, row hit/miss/conflict, refresh). Set via Memory.SetObs.
	obs obs.Sink

	stats ChannelStats
}

// ChannelStats aggregates per-channel counters.
type ChannelStats struct {
	Reads      int64
	Writes     int64
	RowHits    int64
	RowMisses  int64
	Activates  int64
	Precharges int64
	Refreshes  int64
	BytesMoved int64
	// BusBusyCycles counts controller clocks the data bus carried data.
	BusBusyCycles int64
	// QueueFullRejects counts admissions this channel refused because
	// its controller queue was full. Only the MMU's drain is refused:
	// on every cycle any core's issue queue holds a translated request,
	// it tries each core's drain window (the first 32 requests) in
	// order, round-robin across cores, until it admits one, and goes
	// round again after each grant; every try on a full channel counts
	// one. The MMU makes none of those tries: it offers Enqueue only
	// requests whose channel has space and charges the rest
	// (ChargeRefusals), and while every drain-window request's channel
	// is full it sleeps and charges each slept cycle one refusal per
	// drain-window request on that request's channel, exactly what the
	// tries would have counted. Page-table reads check for space first
	// and are never refused.
	QueueFullRejects int64
}

func newChannel(m *Memory, id int) *channel {
	cfg := m.cfg
	ch := &channel{
		cfg:          cfg,
		id:           id,
		dev:          m,
		banks:        make([]bank, cfg.BanksPerChannel()),
		nextCASGroup: make([]clock.Global, cfg.Ranks*cfg.BankGroups),
		lastActivate: make([]clock.Global, cfg.Ranks),
		actWindow:    make([][]clock.Global, cfg.Ranks),
		actWindowPos: make([]int, cfg.Ranks),
		nextRefresh:  make([]clock.Global, cfg.Ranks),
		refreshing:   make([]clock.Global, cfg.Ranks),
		due:          make([]bool, cfg.Ranks),
		lastTick:     -1,
	}
	for i := range ch.banks {
		ch.banks[i].openRow = -1
	}
	ch.lastWasRead = true
	for r := range ch.lastActivate {
		ch.lastActivate[r] = -1 << 40
	}
	for r := 0; r < cfg.Ranks; r++ {
		ch.actWindow[r] = make([]clock.Global, 4)
		for j := range ch.actWindow[r] {
			ch.actWindow[r][j] = -1 << 40
		}
		if cfg.Timing.REFI > 0 {
			ch.nextRefresh[r] = clock.Global(cfg.Timing.REFI)
		} else {
			ch.nextRefresh[r] = clock.FarFuture
		}
	}
	return ch
}

// canAccept reports whether the controller queue has space.
func (c *channel) canAccept() bool { return len(c.queue) < c.cfg.QueueDepth }

// enqueue admits a request; the caller must have checked canAccept. A
// cached horizon falls to the new request's earliest command, which
// under FCFS counts only if the request is the head.
func (c *channel) enqueue(req *mem.Request, loc Location) {
	c.queue = append(c.queue, pending{
		req:   req,
		loc:   loc,
		bank:  c.cfg.BankIndex(loc),
		group: loc.Rank*c.cfg.BankGroups + loc.BankGroup,
		read:  req.Kind == mem.Read,
	})
	if req.Class == mem.PageTable {
		c.ptQueued++
	}
	if c.horizonOK && (c.cfg.Policy != FCFS || len(c.queue) == 1) {
		c.horizon = min(c.horizon, c.earliestProgress(&c.queue[len(c.queue)-1]))
	}
}

// tick advances the controller by one global cycle: retire completions,
// handle refresh, then issue at most one DRAM command.
func (c *channel) tick(now clock.Global) {
	c.horizonOK = false
	if invariant.Enabled {
		invariant.Check(now > c.lastTick,
			"dram: channel %d ticked backwards: %d after %d", c.id, now, c.lastTick)
		c.lastTick = now
		// Refresh-window bound: a due refresh may be delayed by the
		// precharge-all sequence, but never by a whole refresh interval
		// — that would mean fast-forward skipped over the deadline.
		if t := c.cfg.Timing; t.REFI > 0 {
			for r := range c.nextRefresh {
				if c.refreshing[r] <= now {
					invariant.Check(now < c.nextRefresh[r]+clock.Global(t.REFI),
						"dram: channel %d rank %d refresh overdue by a full interval at cycle %d (deadline %d)",
						c.id, r, now, c.nextRefresh[r])
				}
			}
		}
	}
	c.retire(now)
	if c.handleRefresh(now) {
		return
	}
	if len(c.queue) == 0 {
		return
	}
	idx := c.pick(now)
	if idx < 0 {
		return
	}
	c.issue(now, idx)
}

func (c *channel) retire(now clock.Global) {
	out := c.completions[:0]
	for _, cmp := range c.completions {
		if cmp.at <= now {
			c.dev.complete(now, c.id, cmp.req)
		} else {
			out = append(out, cmp)
		}
	}
	c.completions = out
}

// handleRefresh performs refresh management for all ranks. It returns
// true if it consumed the command slot this cycle.
func (c *channel) handleRefresh(now clock.Global) bool {
	t := &c.cfg.Timing
	for r := 0; r < c.cfg.Ranks; r++ {
		if c.refreshing[r] > now {
			continue // refresh in progress; bank constraints already set
		}
		if now < c.nextRefresh[r] {
			continue
		}
		// Refresh due: close the rank's open banks with one precharge-all
		// (PREA) command once every open bank is prechargeable.
		base := r * c.cfg.BankGroups * c.cfg.BanksPerGroup
		n := c.cfg.BankGroups * c.cfg.BanksPerGroup
		anyOpen := false
		for b := base; b < base+n; b++ {
			bk := &c.banks[b]
			if bk.openRow >= 0 {
				if now < bk.nextPrecharge {
					return false // wait; keep the command slot idle
				}
				anyOpen = true
			}
		}
		if anyOpen {
			for b := base; b < base+n; b++ {
				if c.banks[b].openRow >= 0 {
					c.precharge(now, b)
				}
			}
			return true
		}
		// All banks precharged and past tRP: start refresh.
		ready := true
		for b := base; b < base+n; b++ {
			if now < c.banks[b].nextActivate {
				ready = false
				break
			}
		}
		if !ready {
			return false
		}
		if invariant.Enabled {
			invariant.Check(now >= c.nextRefresh[r],
				"dram: refresh started early at %d (deadline %d)", now, c.nextRefresh[r])
			for b := base; b < base+n; b++ {
				invariant.Check(c.banks[b].openRow == -1,
					"dram: refresh with bank %d open (row %d)", b, c.banks[b].openRow)
			}
		}
		c.refreshing[r] = now + clock.Global(t.RFC)
		c.nextRefresh[r] = now + clock.Global(t.REFI)
		for b := base; b < base+n; b++ {
			c.banks[b].nextActivate = now + clock.Global(t.RFC)
		}
		c.stats.Refreshes++
		if c.obs != nil {
			c.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindRefresh, Unit: int32(c.id),
				A: int64(t.RFC), B: int64(r)})
		}
		return true
	}
	return false
}

// pick selects a queue index to service, or -1 if nothing can issue a
// useful command this cycle.
//
// Scheduling order:
//  1. Strict age order once the oldest request has been bypassed
//     StarvationCap times (anti-starvation guard).
//  2. With PTPriority, the oldest page-table-walk read that can make
//     progress this cycle.
//  3. FR-FCFS: the oldest request whose row is open and whose CAS can
//     fire right now.
//  4. The oldest request overall that can make progress (to move on
//     with activates/precharges, overlapping with in-flight data).
//
// One pass in age order decides all four, with each rank's refresh
// hold read once: a starved head that can progress wins at once, as
// does the first page-table read that can; otherwise the first row hit
// that can fire, else the first request that can progress. A starved
// head whose bank is mid-precharge/activate does not freeze the
// channel: other banks keep issuing, which cannot delay the head's own
// bank preparation. Under FCFS only the head request is considered.
// The pass stops at the first row hit unless a page-table read is
// queued behind it that PTPriority could prefer.
func (c *channel) pick(now clock.Global) int {
	if c.cfg.Policy == FCFS {
		return 0
	}
	for r := range c.due {
		c.due[r] = c.refreshDue(now, r)
	}
	if invariant.Enabled {
		n := 0
		for i := range c.queue {
			if c.queue[i].req.Class == mem.PageTable {
				n++
			}
		}
		invariant.Check(n == c.ptQueued,
			"dram: channel %d queues %d page-table reads, counted %d", c.id, n, c.ptQueued)
	}
	starved := c.cfg.StarvationCap > 0 && c.queue[0].bypass >= c.cfg.StarvationCap
	ptFirst := c.cfg.PTPriority && c.ptQueued > 0
	hit, ready := -1, -1
	for i := range c.queue {
		p := &c.queue[i]
		if c.due[p.loc.Rank] {
			continue
		}
		b := &c.banks[p.bank]
		var ok, rowHit bool
		switch {
		case b.openRow == p.loc.Row:
			ok = c.casReady(now, p, b)
			rowHit = ok
		case b.openRow >= 0:
			ok = now >= b.nextPrecharge
		default:
			ok = c.canActivate(now, p)
		}
		if !ok {
			continue
		}
		if i == 0 && starved {
			return 0
		}
		if ptFirst && p.req.Class == mem.PageTable {
			c.notePick(i, starved)
			return i
		}
		if rowHit && hit < 0 {
			hit = i
			if !ptFirst {
				break
			}
		}
		if ready < 0 {
			ready = i
		}
	}
	if hit >= 0 {
		ready = hit
	}
	if ready >= 0 {
		c.notePick(ready, starved)
	}
	return ready
}

// notePick charges a bypass to the queue head when a younger request is
// chosen ahead of it; an already-starved head (whose bank is being
// prepared) is not charged further.
func (c *channel) notePick(i int, starved bool) {
	if i > 0 && !starved {
		c.queue[0].bypass++
	}
}

// refreshDue reports whether rank r has a refresh due that has not yet
// started. New commands to such a rank are held off: otherwise a steady
// request stream keeps reopening rows faster than the precharge-all
// sequence can close them and the refresh starves past a full interval.
func (c *channel) refreshDue(now clock.Global, r int) bool {
	return c.cfg.Timing.REFI > 0 && c.refreshing[r] <= now && now >= c.nextRefresh[r]
}

// casReady reports whether the column command for p, whose row is open
// in its bank b, could issue at now. The data bus is pipelined: a CAS
// may issue while earlier data is still in flight, as long as its own
// data window (starting CL or CWL cycles later) begins after the bus
// frees, plus a turnaround bubble when the transfer direction changes.
func (c *channel) casReady(now clock.Global, p *pending, b *bank) bool {
	if now < c.nextCASGroup[p.group] || now < c.nextCASAny {
		return false
	}
	if p.read {
		return now >= b.nextRead && now+clock.Global(c.cfg.Timing.CL) >= c.busNeededAt(true)
	}
	return now >= b.nextWrite && now+clock.Global(c.cfg.Timing.CWL) >= c.busNeededAt(false)
}

// busNeededAt returns the earliest cycle the data bus may start a new
// transfer in the given direction.
func (c *channel) busNeededAt(read bool) clock.Global {
	at := c.busFreeAt
	if read != c.lastWasRead {
		at += 2 // bus turnaround bubble
	}
	return at
}

// issue advances the chosen request by one command (precharge, activate,
// or CAS). CAS removes the request from the queue and schedules its
// completion.
func (c *channel) issue(now clock.Global, idx int) {
	t := &c.cfg.Timing
	p := &c.queue[idx]
	if c.refreshDue(now, p.loc.Rank) {
		return // rank is closing for refresh; hold the command
	}
	b := &c.banks[p.bank]

	switch {
	case b.openRow == p.loc.Row:
		if !c.casReady(now, p, b) {
			return
		}
		c.nextCASGroup[p.group] = now + clock.Global(t.CCDL)
		c.nextCASAny = now + clock.Global(t.CCDS)
		if p.read {
			dataAt := max(now+clock.Global(t.CL), c.busNeededAt(true))
			c.busFreeAt = dataAt + clock.Global(t.BL2)
			c.lastWasRead = true
			if nb := now + clock.Global(t.RTP); nb > b.nextPrecharge {
				b.nextPrecharge = nb
			}
			c.finishAt(c.busFreeAt, p.req)
			c.stats.Reads++
		} else {
			dataAt := max(now+clock.Global(t.CWL), c.busNeededAt(false))
			c.busFreeAt = dataAt + clock.Global(t.BL2)
			c.lastWasRead = false
			if nb := dataAt + clock.Global(t.BL2) + clock.Global(t.WR); nb > b.nextPrecharge {
				b.nextPrecharge = nb
			}
			c.finishAt(dataAt+clock.Global(t.BL2), p.req)
			c.stats.Writes++
		}
		c.stats.RowHits++
		c.stats.BytesMoved += int64(p.req.Size)
		c.stats.BusBusyCycles += int64(t.BL2)
		isWrite := !p.read
		core := int32(p.req.Core)
		if p.req.Class == mem.PageTable {
			c.ptQueued--
		}
		c.queue = append(c.queue[:idx], c.queue[idx+1:]...)
		if c.obs != nil {
			var wr int64
			if isWrite {
				wr = 1
			}
			c.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindDRAMIssue, Core: core,
				Unit: int32(c.id), A: int64(len(c.queue)), B: wr})
			c.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindRowHit, Core: core, Unit: int32(c.id)})
		}

	case b.openRow >= 0:
		// Row conflict: precharge when legal.
		if now >= b.nextPrecharge {
			c.precharge(now, p.bank)
			c.stats.RowMisses++
			if c.obs != nil {
				c.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindRowConflict,
					Core: int32(p.req.Core), Unit: int32(c.id)})
			}
		}

	default:
		// Bank closed: activate when legal.
		if c.canActivate(now, p) {
			c.activate(now, p)
			if c.obs != nil {
				c.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindRowMiss,
					Core: int32(p.req.Core), Unit: int32(c.id)})
			}
		}
	}
}

func (c *channel) precharge(now clock.Global, bankIdx int) {
	b := &c.banks[bankIdx]
	b.openRow = -1
	b.nextActivate = max(b.nextActivate, now+clock.Global(c.cfg.Timing.RP))
	c.stats.Precharges++
}

// canActivate reports whether p's bank, which is precharged, may open
// p's row at now.
func (c *channel) canActivate(now clock.Global, p *pending) bool {
	if now < c.banks[p.bank].nextActivate {
		return false
	}
	t := &c.cfg.Timing
	r := p.loc.Rank
	if now < c.lastActivate[r]+clock.Global(t.RRDS) {
		return false
	}
	// tFAW: the 4th-most-recent activate must be at least FAW ago.
	oldest := c.actWindow[r][c.actWindowPos[r]]
	return now >= oldest+clock.Global(t.FAW)
}

func (c *channel) activate(now clock.Global, p *pending) {
	t := &c.cfg.Timing
	b := &c.banks[p.bank]
	r := p.loc.Rank
	if invariant.Enabled {
		invariant.Check(b.openRow == -1,
			"dram: activate on open bank (ch=%d bank=%d row=%d)", c.id, p.bank, b.openRow)
		invariant.Check(now >= b.nextActivate,
			"dram: tRC/tRP violated: activate at %d before %d", now, b.nextActivate)
		invariant.Check(now >= c.lastActivate[r]+clock.Global(t.RRDS),
			"dram: tRRD violated: activate at %d, last %d, RRDS=%d", now, c.lastActivate[r], t.RRDS)
		oldest := c.actWindow[r][c.actWindowPos[r]]
		invariant.Check(now >= oldest+clock.Global(t.FAW),
			"dram: tFAW violated: 5th activate at %d within FAW=%d of %d", now, t.FAW, oldest)
	}
	b.openRow = p.loc.Row
	b.nextRead = now + clock.Global(t.RCD)
	b.nextWrite = now + clock.Global(t.RCD)
	b.nextPrecharge = now + clock.Global(t.RAS)
	c.lastActivate[r] = now
	c.actWindow[r][c.actWindowPos[r]] = now
	c.actWindowPos[r] = (c.actWindowPos[r] + 1) % 4
	c.stats.Activates++
}

func (c *channel) finishAt(at clock.Global, req *mem.Request) {
	c.completions = append(c.completions, completion{at: at, req: req})
}

// nextEventAfter returns the earliest future cycle at which this channel
// needs attention: horizonNow, or now+1 if that has passed (a due
// refresh, or a command that could issue now, proceeds cycle by
// cycle). The horizon is recomputed only after a tick; an admission
// lowers the cached value in O(1) (enqueue), so the kernel's enqueue
// seam does not rescan the queue.
func (c *channel) nextEventAfter(now clock.Global) clock.Global {
	if !c.horizonOK {
		c.horizon = c.horizonNow()
		c.horizonOK = true
	} else if invariant.Enabled {
		fresh := c.horizonNow()
		invariant.Check(c.horizon == fresh,
			"dram: channel %d cached horizon %d, recomputed %d", c.id, c.horizon, fresh)
	}
	if c.horizon <= now {
		return now + 1
	}
	return c.horizon
}

// horizonNow returns the earliest cycle at which the channel's state
// can change without new work arriving, which may already have passed:
// a rank's refresh deadline (a skipped window never spans a bank-state
// change, and a refresh that is due runs cycle by cycle), a burst
// completion, or the first cycle a queued request could issue a
// command. Between command issues the controller state is frozen —
// every timer (bank, CAS window, bus) is an absolute cycle — so that
// last cycle is exact, not a bound. Under FCFS only the head request
// is ever considered.
func (c *channel) horizonNow() clock.Global {
	var next clock.Global = clock.FarFuture
	if c.cfg.Timing.REFI > 0 {
		for _, at := range c.nextRefresh {
			next = min(next, at)
		}
	}
	for _, cmp := range c.completions {
		next = min(next, cmp.at)
	}
	n := len(c.queue)
	if c.cfg.Policy == FCFS {
		n = min(n, 1)
	}
	for i := 0; i < n; i++ {
		next = min(next, c.earliestProgress(&c.queue[i]))
	}
	return next
}

// earliestProgress returns the earliest cycle at which p could issue a
// useful command (CAS, precharge, or activate) given the controller's
// current timers, mirroring pick's readiness test cycle for cycle: p
// cannot progress at any t before the returned cycle and can at it,
// provided no other command issues in between (any such issue means the
// channel was ticked, which re-evaluates this horizon).
func (c *channel) earliestProgress(p *pending) clock.Global {
	t := &c.cfg.Timing
	b := &c.banks[p.bank]
	switch {
	case b.openRow == p.loc.Row:
		e := max(c.nextCASGroup[p.group], c.nextCASAny)
		if p.read {
			return max(e, b.nextRead, c.busNeededAt(true)-clock.Global(t.CL))
		}
		return max(e, b.nextWrite, c.busNeededAt(false)-clock.Global(t.CWL))
	case b.openRow >= 0:
		return b.nextPrecharge
	default:
		r := p.loc.Rank
		oldest := c.actWindow[r][c.actWindowPos[r]]
		return max(b.nextActivate, c.lastActivate[r]+clock.Global(t.RRDS), oldest+clock.Global(t.FAW))
	}
}
