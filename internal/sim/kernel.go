package sim

import (
	"context"
	"fmt"

	"mnpusim/internal/clock"
	"mnpusim/internal/dram"
	"mnpusim/internal/invariant"
	"mnpusim/internal/mem"
	"mnpusim/internal/mmu"
	"mnpusim/internal/npu"
	"mnpusim/internal/obs"
	"mnpusim/internal/obs/hostprof"
)

// component is the event kernel's view of one piece of hardware: a DRAM
// channel, the MMU, or an NPU core. The wake contract: after tick(now),
// the component's observable state cannot change before next(now) unless
// an external stimulus (DMA submit, DRAM enqueue, burst completion, a
// freed DRAM queue slot) arrives first — and every such stimulus re-arms
// the target through eventKernel.wake. skipTo(now) advances pure
// bookkeeping across a window the contract proved quiet: a core's local
// clock and stall accounting, the MMU's refusal settlement; it is a
// no-op for channels.
type component interface {
	tick(now clock.Global)
	skipTo(now clock.Global)
	next(now clock.Global) clock.Global
}

type channelComp struct {
	m  *dram.Memory
	ch int
}

func (c channelComp) tick(now clock.Global)   { c.m.TickChannel(c.ch, now) }
func (c channelComp) skipTo(now clock.Global) {}
func (c channelComp) next(now clock.Global) clock.Global {
	return c.m.ChannelNextEventAfter(c.ch, now)
}

type mmuComp struct{ u *mmu.MMU }

func (c mmuComp) tick(now clock.Global)              { c.u.Tick(now) }
func (c mmuComp) skipTo(now clock.Global)            { c.u.SkipTo(now) }
func (c mmuComp) next(now clock.Global) clock.Global { return c.u.NextEventAfter(now) }

// coreComp shifts the global clock onto the core's delayed timeline
// (StartCycles), mirroring the tick reference's now-starts[i]
// convention.
type coreComp struct {
	c     *npu.Core
	start clock.Global
}

func (c coreComp) tick(now clock.Global) { c.c.Tick(now - c.start) }

func (c coreComp) skipTo(now clock.Global) {
	if now > c.start {
		c.c.SkipTo(now - c.start)
	}
}

func (c coreComp) next(now clock.Global) clock.Global {
	if now < c.start {
		return c.start
	}
	return c.c.NextEventAfter(now-c.start) + c.start
}

// wakeSubmitter wraps the MMU port handed to a core so that a
// successful DMA submission re-arms the MMU's wake entry. The MMU has
// already ticked this cycle or is sleeping through it (cores tick
// last), so its post-submit NextEventAfter is the exact horizon — the
// tick reference's fast-forward recomputes the same value after this
// cycle. A coalesced miss that merely joins an in-flight walk, or a
// request parked behind a full DRAM channel, leaves the horizon where
// it was, so waking at now+1 unconditionally would make the event
// kernel visit cycles the tick reference skips. The core submits on
// the true global cycle, its start offset added back.
type wakeSubmitter struct {
	mmu   *mmu.MMU
	ek    *eventKernel
	mmuID int
}

func (w *wakeSubmitter) Submit(now clock.Global, r *mem.Request) bool {
	ok := w.mmu.Submit(now, r)
	if ok {
		w.ek.wake(w.mmuID, w.mmu.NextEventAfter(now))
	}
	return ok
}

// wakeEntry is one heap entry: component id armed at cycle at. Ordering
// is (at, id); ids follow the tick reference's within-cycle component
// order (channels, then MMU, then cores), so draining the heap at one
// cycle reproduces its ordering exactly.
type wakeEntry struct {
	at clock.Global
	id int
}

func entryLess(a, b wakeEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

// eventKernel is the discrete-event driver state. Components due on the
// very next processed cycle live in the hot set — a per-component flag
// scanned in id order, so a saturated system pays plain-array cost, not
// heap cost. Only a component sleeping past the next cycle is parked in
// the binary heap, with lazy invalidation: armed[id] names the single
// valid heap entry per component; any popped entry whose cycle
// disagrees is stale and discarded. Re-arming never searches the heap —
// it just pushes the new entry and lets the old one go stale.
type eventKernel struct {
	comps []component
	armed []clock.Global // cycle of the valid heap entry; farFuture = none
	last  []clock.Global // last cycle the component ticked
	hot   []bool         // due at the next processed cycle; no heap entry
	nhot  int
	cur   clock.Global // cycle currently being drained; wakes at cur join hot
	heap  []wakeEntry

	pops int64 // total heap pops, stale included (the kernel's cost unit)
}

func newEventKernel(n int) *eventKernel {
	k := &eventKernel{
		armed: make([]clock.Global, n),
		last:  make([]clock.Global, n),
		hot:   make([]bool, n),
		cur:   -1,
		heap:  make([]wakeEntry, 0, 4*n),
	}
	for i := range k.armed {
		k.armed[i] = farFuture
		k.last[i] = -1
	}
	return k
}

func (k *eventKernel) push(e wakeEntry) {
	k.heap = append(k.heap, e)
	i := len(k.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(k.heap[i], k.heap[p]) {
			break
		}
		k.heap[i], k.heap[p] = k.heap[p], k.heap[i]
		i = p
	}
}

func (k *eventKernel) pop() wakeEntry {
	top := k.heap[0]
	n := len(k.heap) - 1
	k.heap[0] = k.heap[n]
	k.heap = k.heap[:n]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && entryLess(k.heap[l], k.heap[m]) {
			m = l
		}
		if r < n && entryLess(k.heap[r], k.heap[m]) {
			m = r
		}
		if m == i {
			break
		}
		k.heap[i], k.heap[m] = k.heap[m], k.heap[i]
		i = m
	}
	k.pops++
	return top
}

// wake re-arms component id at cycle at in response to an external
// stimulus. Waking only ever moves a component earlier: a later wake
// than the armed one is redundant (the component re-evaluates its
// horizon when it ticks anyway). A hot component already ticks at the
// earliest possible cycle, so a wake for it is always redundant; a wake
// landing on the cycle currently being drained joins the hot set (the
// within-cycle seam ordering guarantees the target has not ticked yet).
func (k *eventKernel) wake(id int, at clock.Global) {
	if k.hot[id] || at >= k.armed[id] {
		return
	}
	if invariant.Enabled {
		// A stimulus must never target a cycle the component already
		// ticked: that would require a second tick on one cycle, which
		// the within-cycle component ordering (channels before MMU
		// before cores) rules out for every seam.
		invariant.Check(at > k.last[id],
			"sim: kernel wake for component %d at cycle %d, already ticked at %d", id, at, k.last[id])
	}
	if at == k.cur {
		k.hot[id] = true
		k.nhot++
		k.armed[id] = farFuture
		return
	}
	k.armed[id] = at
	k.push(wakeEntry{at: at, id: id})
}

// arm registers component id's self-reported horizon after its tick.
func (k *eventKernel) arm(id int, at clock.Global) {
	if invariant.Enabled {
		invariant.Check(at > k.last[id],
			"sim: component %d horizon %d not after its tick at %d", id, at, k.last[id])
	}
	k.armed[id] = at
	if at < farFuture {
		k.push(wakeEntry{at: at, id: id})
	}
}

// nextCycle discards stale entries and returns the cycle of the
// earliest live one; ok is false when the heap holds no live entries.
func (k *eventKernel) nextCycle() (at clock.Global, ok bool) {
	for len(k.heap) > 0 {
		top := k.heap[0]
		if top.at == k.armed[top.id] {
			return top.at, true
		}
		k.pop()
	}
	return 0, false
}

// absorb moves every live heap entry at cycle t into the hot set, so
// the drain scan visits heap-armed and hot components in one id-ordered
// pass.
func (k *eventKernel) absorb(t clock.Global) {
	for len(k.heap) > 0 {
		top := k.heap[0]
		if top.at != k.armed[top.id] {
			k.pop()
			continue
		}
		if top.at != t {
			return
		}
		k.pop()
		// Consumed: mark the heap slot empty so duplicate same-cycle
		// entries (two stimuli, one target) go stale.
		k.armed[top.id] = farFuture
		if !k.hot[top.id] {
			k.hot[top.id] = true
			k.nhot++
		}
	}
}

// runEvent is the simulator's main loop. It visits exactly the cycles a
// tick-everything loop with fast-forward would tick — a cycle is
// processed iff some component's horizon lands on it — but ticks only
// the components armed there, so idle hardware costs nothing. The probe
// stream (including skip windows and loop-iteration counts) and the
// final Result are byte-identical to that loop's by construction;
// TestKernelEventMatchesTick proves it against the tick kernel, which
// survives as a test-only reference (tickref_test.go).
func (s *system) runEvent(ctx context.Context) (clock.Global, error) {
	ek := s.ek
	cfg := s.cfg
	hp := cfg.HostProf
	chs := s.memory.Channels()
	mmuID := chs
	comps := make([]component, 0, chs+1+len(s.cores))
	for i := 0; i < chs; i++ {
		comps = append(comps, channelComp{m: s.memory, ch: i})
	}
	comps = append(comps, mmuComp{u: s.unit})
	for i, c := range s.cores {
		comps = append(comps, coreComp{c: c, start: s.starts[i]})
	}
	ek.comps = comps

	// Initial arming mirrors the tick loop's first iteration: every
	// channel and the MMU tick at cycle 0 (idle ticks are no-ops, so
	// this only seeds refresh deadlines and the like); each core wakes
	// at its start cycle.
	for i := 0; i <= mmuID; i++ {
		ek.arm(i, 0)
	}
	for i := range s.cores {
		ek.arm(mmuID+1+i, s.starts[i])
	}

	// secFor classes a component id for the host-time ladder; ids follow
	// the within-cycle order (channels, MMU, cores).
	secFor := func(id int) hostprof.Section {
		switch {
		case id < mmuID:
			return hostprof.SecTickDRAM
		case id == mmuID:
			return hostprof.SecTickMMU
		default:
			return hostprof.SecTickCore
		}
	}

	done := ctx.Done()
	var prev clock.Global = -1
	for !s.allDone() {
		// Host-time ladder: one clock read per section boundary, none
		// when no profiler is attached. Scheduling (heap pops, the absorb
		// scan, horizon re-arming below) is SecKernelHeap; each tick is
		// its component's section.
		var hpT int64
		if hp != nil {
			hpT = hostprof.Now()
		}
		var t clock.Global
		if ek.nhot > 0 {
			// Something is due on the very next cycle; no heap entry can
			// beat it (every entry is strictly after prev).
			t = prev + 1
		} else {
			var ok bool
			t, ok = ek.nextCycle()
			if !ok || t >= farFuture {
				return 0, fmt.Errorf("sim: system wedged at cycle %d with no pending events: %s", prev, describeWedge(s.cores, s.unit))
			}
		}
		ek.absorb(t)
		ek.cur = t
		if hp != nil {
			hp.AddSince(hostprof.SecKernelHeap, hpT)
		}
		if done != nil && s.loopIters&cancelCheckMask == 0 {
			select {
			case <-done:
				return 0, s.cancelled(ctx, t)
			default:
			}
		}
		if invariant.Enabled {
			invariant.Check(t > prev,
				"sim: global clock not monotonic: %d after %d", t, prev)
		}
		if cfg.MaxGlobalCycles > 0 && t > cfg.MaxGlobalCycles {
			return 0, fmt.Errorf("sim: exceeded MaxGlobalCycles=%d (deadlock or runaway config)", cfg.MaxGlobalCycles)
		}
		if t > prev+1 && prev >= 0 {
			s.loopSkips++
			s.loopSkipped += (t - prev - 1).Int64()
			if s.sink != nil {
				s.sink.Emit(obs.Event{Cycle: prev, Kind: obs.KindSkipWindow, Core: -1, A: (t - prev - 1).Int64()})
			}
		}
		s.loopIters++
		for id := 0; id < len(ek.comps); id++ {
			if !ek.hot[id] {
				continue
			}
			c := ek.comps[id]
			if hp != nil {
				hpT = hostprof.Now()
			}
			if ek.last[id] < t-1 {
				// The component slept through (last, t): catch its
				// bookkeeping up across the provably quiet gap before
				// delivering the tick, exactly as the tick kernel's
				// fast-forward does (SkipTo(next) then Tick(next)).
				c.skipTo(t)
			}
			c.tick(t)
			ek.last[id] = t
			s.compTicks++
			if hp != nil {
				hpT = hp.AddSince(secFor(id), hpT)
			}
			if next := c.next(t); next == t+1 {
				// Due again immediately: stay hot, skip the heap.
			} else {
				ek.hot[id] = false
				ek.nhot--
				ek.arm(id, next)
			}
			if hp != nil {
				hp.AddSince(hostprof.SecKernelHeap, hpT)
			}
		}
		s.phaseScan(t)
		prev = t
	}

	// End-of-run catch-up: the tick kernel ticks every core on every
	// cycle through the final one, accumulating local-clock and stall
	// statistics even on cores that are merely waiting, and a sleeping
	// MMU still owes the refusals of the cycles it slept through; bring
	// both to the same final state.
	end := prev + 1
	for id := mmuID; id < len(comps); id++ {
		comps[id].skipTo(end)
	}
	return end, nil
}
