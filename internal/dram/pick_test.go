package dram

import (
	"math/rand"
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/mem"
)

// scanPick is the three-scan FR-FCFS pick the single pass replaces. It
// decodes bank, bank group and direction from the request's Location
// and Kind on every look, so it also checks the fields enqueue
// precomputes.
func scanPick(c *channel, now clock.Global) int {
	if c.cfg.Policy == FCFS {
		return 0
	}
	starved := c.cfg.StarvationCap > 0 && c.queue[0].bypass >= c.cfg.StarvationCap
	if starved && scanCanProgress(c, now, &c.queue[0]) {
		return 0
	}
	if c.cfg.PTPriority {
		for i := range c.queue {
			p := &c.queue[i]
			if p.req.Class == mem.PageTable && scanCanProgress(c, now, p) {
				c.notePick(i, starved)
				return i
			}
		}
	}
	for i := range c.queue {
		p := &c.queue[i]
		if c.refreshDue(now, p.loc.Rank) {
			continue
		}
		b := &c.banks[c.cfg.BankIndex(p.loc)]
		if b.openRow == p.loc.Row && scanCASReady(c, now, p) {
			c.notePick(i, starved)
			return i
		}
	}
	for i := range c.queue {
		if scanCanProgress(c, now, &c.queue[i]) {
			c.notePick(i, starved)
			return i
		}
	}
	return -1
}

func scanCanProgress(c *channel, now clock.Global, p *pending) bool {
	if c.refreshDue(now, p.loc.Rank) {
		return false
	}
	b := &c.banks[c.cfg.BankIndex(p.loc)]
	switch {
	case b.openRow == p.loc.Row:
		return scanCASReady(c, now, p)
	case b.openRow >= 0:
		return now >= b.nextPrecharge
	default:
		if now < b.nextActivate || now < c.lastActivate[p.loc.Rank]+clock.Global(c.cfg.Timing.RRDS) {
			return false
		}
		return now >= c.actWindow[p.loc.Rank][c.actWindowPos[p.loc.Rank]]+clock.Global(c.cfg.Timing.FAW)
	}
}

func scanCASReady(c *channel, now clock.Global, p *pending) bool {
	b := &c.banks[c.cfg.BankIndex(p.loc)]
	if b.openRow != p.loc.Row {
		return false
	}
	grp := p.loc.Rank*c.cfg.BankGroups + p.loc.BankGroup
	if now < c.nextCASGroup[grp] || now < c.nextCASAny {
		return false
	}
	if p.req.Kind == mem.Read {
		return now >= b.nextRead && now+clock.Global(c.cfg.Timing.CL) >= c.busNeededAt(true)
	}
	return now >= b.nextWrite && now+clock.Global(c.cfg.Timing.CWL) >= c.busNeededAt(false)
}

// scanNextEventAfter is the horizon recomputed from scratch on every
// call, with a due refresh answered first: no cached value is read.
func scanNextEventAfter(c *channel, now clock.Global) clock.Global {
	var next clock.Global = clock.FarFuture
	if c.cfg.Timing.REFI > 0 {
		for r := range c.nextRefresh {
			if c.refreshing[r] <= now && c.nextRefresh[r] <= now {
				return now + 1
			}
			next = min(next, c.nextRefresh[r])
		}
	}
	for _, cmp := range c.completions {
		next = min(next, cmp.at)
	}
	next = min(next, scanQueueHorizon(c))
	if next <= now {
		return now + 1
	}
	return next
}

// scanQueueHorizon is the queue's horizon recomputed from scratch.
func scanQueueHorizon(c *channel) clock.Global {
	var next clock.Global = clock.FarFuture
	n := len(c.queue)
	if c.cfg.Policy == FCFS && n > 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		next = min(next, c.earliestProgress(&c.queue[i]))
	}
	return next
}

// pickConfigs are the scheduler variants the twins cover.
func pickConfigs() map[string]Config {
	base := HBM2(1)
	base.BanksPerGroup = 2 // fewer banks: more requests share one
	out := map[string]Config{"default": base}
	noPT := base
	noPT.PTPriority = false
	out["no-pt-priority"] = noPT
	tight := base
	tight.StarvationCap = 2
	out["starvation-cap-2"] = tight
	noCap := base
	noCap.StarvationCap = 0
	out["no-starvation-cap"] = noCap
	ranks := base
	ranks.Ranks = 2
	out["two-ranks"] = ranks
	fcfs := base
	fcfs.Policy = FCFS
	out["fcfs"] = fcfs
	return out
}

// seededChannel builds channel 0 of a fresh device with cfg and puts
// it in a state drawn from rng: bank rows and timers, CAS windows, the
// data bus, activation history and refresh all within a few cycles of
// the returned cycle, and a queue of admitted requests with a bypassed
// head. The same seed builds the same channel.
func seededChannel(cfg Config, rng *rand.Rand) (*channel, clock.Global) {
	c := mustNew(cfg).channels[0]
	now := clock.Global(5000 + rng.Intn(100))
	near := func() clock.Global { return now + clock.Global(rng.Intn(7)-3) }
	for i := range c.banks {
		b := &c.banks[i]
		b.openRow = int64(rng.Intn(3)) - 1
		b.nextActivate, b.nextRead, b.nextWrite, b.nextPrecharge = near(), near(), near(), near()
	}
	for i := range c.nextCASGroup {
		c.nextCASGroup[i] = near()
	}
	c.nextCASAny = near()
	c.busFreeAt = now + clock.Global(rng.Intn(24)-4)
	c.lastWasRead = rng.Intn(2) == 0
	for r := 0; r < cfg.Ranks; r++ {
		c.lastActivate[r] = now - clock.Global(rng.Intn(8))
		for j := range c.actWindow[r] {
			c.actWindow[r][j] = now - clock.Global(rng.Intn(24))
		}
		c.actWindowPos[r] = rng.Intn(4)
		c.nextRefresh[r] = now + clock.Global(rng.Intn(40)-2)
		if rng.Intn(4) == 0 {
			c.refreshing[r] = now + clock.Global(rng.Intn(3))
		}
	}
	for i := 0; i < 1+rng.Intn(cfg.QueueDepth); i++ {
		c.enqueue(seededRequest(rng), seededLocation(cfg, rng))
	}
	c.queue[0].bypass = rng.Intn(cfg.StarvationCap + 2)
	for i := rng.Intn(4); i > 0; i-- {
		c.finishAt(now+clock.Global(rng.Intn(30)), seededRequest(rng))
	}
	return c, now
}

func seededRequest(rng *rand.Rand) *mem.Request {
	r := &mem.Request{Size: 64, Kind: mem.Read, Class: mem.Data}
	if rng.Intn(3) == 0 {
		r.Kind = mem.Write
	}
	if rng.Intn(4) == 0 {
		r.Class = mem.PageTable
	}
	return r
}

func seededLocation(cfg Config, rng *rand.Rand) Location {
	return Location{
		Rank:      rng.Intn(cfg.Ranks),
		BankGroup: rng.Intn(cfg.BankGroups),
		Bank:      rng.Intn(cfg.BanksPerGroup),
		Row:       int64(rng.Intn(2)),
	}
}

// TestSinglePassPickMatchesScans compares pick with the three-scan pick
// it replaced over seeded queues and bank states, at the drawn cycle
// and the cycles around it: both must choose the same request and
// charge the head the same bypass.
func TestSinglePassPickMatchesScans(t *testing.T) {
	for name, cfg := range pickConfigs() {
		t.Run(name, func(t *testing.T) {
			picked := map[int]bool{}
			ptQueued := map[bool]bool{} // whether a page-table read was queued
			for seed := int64(1); seed <= 2000; seed++ {
				c, now := seededChannel(cfg, rand.New(rand.NewSource(seed)))
				ref, _ := seededChannel(cfg, rand.New(rand.NewSource(seed)))
				ptQueued[c.ptQueued > 0] = true
				for at := now - 4; at <= now+8; at++ {
					got, want := c.pick(at), scanPick(ref, at)
					if got != want {
						t.Fatalf("seed %d cycle %d: pick chose %d, the three scans %d", seed, at, got, want)
					}
					if c.queue[0].bypass != ref.queue[0].bypass {
						t.Fatalf("seed %d cycle %d: head bypassed %d times, the three scans %d", seed, at, c.queue[0].bypass, ref.queue[0].bypass)
					}
					picked[min(got, 1)] = true
				}
			}
			if cfg.Policy != FCFS && !(picked[-1] && picked[0] && picked[1]) {
				t.Fatalf("seeds never covered each outcome (none, head, younger): %v", picked)
			}
			// PTPriority's scan runs past the first row hit only while a
			// page-table read is queued: both sides must be exercised.
			if cfg.Policy != FCFS && cfg.PTPriority && !(ptQueued[false] && ptQueued[true]) {
				t.Fatalf("seeds never covered queues with and without a page-table read: %v", ptQueued)
			}
		})
	}
}

// TestCachedHorizonMatchesRecompute checks the queue-horizon cache
// against a recompute from scratch over seeded channel states: once
// cached, lowered by seeded admissions, and kept or dropped by ticks,
// at cycles before, at and after the drawn one (which also covers a
// refresh falling due). The ticks must include ones that only retire
// bursts, which keep the cache, and ones that issue a command, which
// drop it.
func TestCachedHorizonMatchesRecompute(t *testing.T) {
	for name, cfg := range pickConfigs() {
		t.Run(name, func(t *testing.T) {
			retireOnly, dropped := 0, 0
			for seed := int64(1); seed <= 500; seed++ {
				rng := rand.New(rand.NewSource(seed))
				c, now := seededChannel(cfg, rng)
				if seed%3 == 0 {
					c.queue = c.queue[:0] // an idle queue: FCFS's new head
					c.ptQueued = 0
				}
				// A due refresh answers now+1 whatever the queue holds,
				// so the cached queue horizon is compared on its own too.
				check := func(step int, at clock.Global, after string) {
					t.Helper()
					if c.queueOK && c.queueAt != scanQueueHorizon(c) {
						t.Fatalf("seed %d step %d cycle %d, %s: cached queue horizon %d, recomputed %d", seed, step, at, after, c.queueAt, scanQueueHorizon(c))
					}
					if got, want := c.nextEventAfter(at), scanNextEventAfter(c, at); got != want {
						t.Fatalf("seed %d step %d cycle %d, %s: horizon %d, recomputed %d", seed, step, at, after, got, want)
					}
				}
				for step := 0; step < 6; step++ {
					at := now - 4 + clock.Global(step*3)
					check(step, at, "before an admission")
					if len(c.queue) < cfg.QueueDepth {
						c.enqueue(seededRequest(rng), seededLocation(cfg, rng))
						check(step, at, "after an admission")
					}
					inFlight := len(c.completions)
					c.tick(at)
					switch {
					case !c.queueOK:
						dropped++
					case len(c.completions) < inFlight:
						retireOnly++
					}
				}
			}
			if retireOnly == 0 || dropped == 0 {
				t.Fatalf("ticks covered %d retire-only and %d command or refresh ticks, want both", retireOnly, dropped)
			}
		})
	}
}
