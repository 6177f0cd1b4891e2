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

// wakeSubmitter wraps the MMU port handed to a core so that an
// admitted DMA submission re-arms the MMU's wake entry. The MMU has
// already ticked this cycle or is sleeping through it (cores tick
// last), so its post-submit NextEventAfter is the exact horizon — the
// tick reference's fast-forward recomputes the same value after this
// cycle. A coalesced miss that merely joins an in-flight walk, or a
// request parked behind a full DRAM channel, leaves the horizon where
// it was, so waking at now+1 unconditionally would make the event
// kernel visit cycles the tick reference skips. The core submits on
// the true global cycle, its start offset added back.
type wakeSubmitter struct {
	*mmu.MMU
	ek    *eventKernel
	mmuID int
}

func (w *wakeSubmitter) Submit(now clock.Global, r *mem.Request) mem.Admission {
	a := w.MMU.Submit(now, r)
	if a == mem.Admitted {
		w.ek.wake(w.mmuID, w.MMU.NextEventAfter(now))
	}
	return a
}

// eventKernel is the discrete-event driver state: one wake cycle per
// component in a plain array. The next processed cycle is the array's
// minimum, and the drain ticks, in id order, every component armed at
// it. Ids follow the tick reference's within-cycle component order
// (channels, then MMU, then cores), so draining one cycle in id order
// reproduces its ordering exactly. A system has a handful of
// components (a tiny dual 7, a paper-scale quad 21), so two linear
// scans per processed cycle cost less than any priority queue.
type eventKernel struct {
	comps []component
	armed []clock.Global // cycle the component next ticks; farFuture = asleep
	last  []clock.Global // last cycle the component ticked

	scans int64 // wake-array entries read (the kernel's cost unit)
}

func newEventKernel(n int) *eventKernel {
	k := &eventKernel{
		armed: make([]clock.Global, n),
		last:  make([]clock.Global, n),
	}
	for i := range k.armed {
		k.armed[i] = farFuture
		k.last[i] = -1
	}
	return k
}

// wake re-arms component id at cycle at in response to an external
// stimulus. Waking only ever moves a component earlier: a later wake
// than the armed one is redundant (the component re-evaluates its
// horizon when it ticks anyway). A wake landing on the cycle being
// drained is picked up by the drain, which has not reached the target
// yet: every seam targets a component later in the within-cycle order.
func (k *eventKernel) wake(id int, at clock.Global) {
	if at >= k.armed[id] {
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
	k.armed[id] = at
}

// arm registers component id's self-reported horizon after its tick.
func (k *eventKernel) arm(id int, at clock.Global) {
	if invariant.Enabled {
		invariant.Check(at > k.last[id],
			"sim: component %d horizon %d not after its tick at %d", id, at, k.last[id])
	}
	k.armed[id] = at
}

// next returns the earliest armed cycle.
func (k *eventKernel) next() clock.Global {
	t := farFuture
	for _, at := range k.armed {
		t = min(t, at)
	}
	k.scans += int64(len(k.armed))
	return t
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
		// when no profiler is attached. Scheduling (the scans for the
		// next cycle and the drain, horizon re-arming below) is
		// SecKernelHeap; each tick is its component's section.
		var hpT int64
		if hp != nil {
			hpT = hostprof.Now()
		}
		t := ek.next()
		if t >= farFuture {
			return 0, fmt.Errorf("sim: system wedged at cycle %d with no pending events: %s", prev, describeWedge(s.cores, s.unit))
		}
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
		if t > prev+1 && prev >= 0 {
			s.loopSkips++
			s.loopSkipped += (t - prev - 1).Int64()
			if s.sink != nil {
				s.sink.Emit(obs.Event{Cycle: prev, Kind: obs.KindSkipWindow, Core: -1, A: (t - prev - 1).Int64()})
			}
		}
		// Checked after the skip window, as the tick reference does, so
		// a run cut short emits the same probe stream under both loops.
		if cfg.MaxGlobalCycles > 0 && t > cfg.MaxGlobalCycles {
			return 0, fmt.Errorf("sim: exceeded MaxGlobalCycles=%d (deadlock or runaway config)", cfg.MaxGlobalCycles)
		}
		s.loopIters++
		ek.scans += int64(len(ek.comps))
		for id, c := range ek.comps {
			if ek.armed[id] != t {
				continue
			}
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
			ek.arm(id, c.next(t))
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
