package sim

import (
	"context"
	"fmt"

	"mnpusim/internal/clock"
	"mnpusim/internal/invariant"
	"mnpusim/internal/obs"
	"mnpusim/internal/obs/hostprof"
)

// The tick reference: the simulator's original main loop, kept only as
// the oracle the event kernel (runEvent) is proven against. It builds
// the system without the event kernel's stimulus seams — no DRAM
// enqueue, completion or freed-slot wake hooks, no freed-MSHR hook,
// cores submitting straight to the MMU — so nothing the event kernel
// relies on can leak into the reference.

// runTickReference runs cfg under the tick kernel and returns the same
// Result (and, through cfg.Obs, the same probe stream) RunContext must
// produce.
func runTickReference(ctx context.Context, cfg Config) (Result, error) {
	s, err := newSystem(cfg, false)
	if err != nil {
		return Result{}, err
	}
	return s.run(ctx, s.runTick)
}

// runTick is the tick kernel: every component ticks on every global
// cycle, with a fast-forward across windows in which no component can
// change state. It returns the final global cycle count.
func (s *system) runTick(ctx context.Context) (clock.Global, error) {
	cfg := s.cfg
	chTicks := int64(s.memory.Channels())
	hp := cfg.HostProf

	// done is nil for context.Background(), turning every cancellation
	// poll into a single branch.
	done := ctx.Done()

	var now clock.Global
	var prevNow clock.Global = -1
	for !s.allDone() {
		if done != nil && s.loopIters&cancelCheckMask == 0 {
			select {
			case <-done:
				return 0, s.cancelled(ctx, now)
			default:
			}
		}
		s.loopIters++
		if invariant.Enabled {
			invariant.Check(now > prevNow,
				"sim: global clock not monotonic: %d after %d", now, prevNow)
			prevNow = now
		}
		if cfg.MaxGlobalCycles > 0 && now > cfg.MaxGlobalCycles {
			return 0, fmt.Errorf("sim: exceeded MaxGlobalCycles=%d (deadlock or runaway config)", cfg.MaxGlobalCycles)
		}
		// Host-time ladder: one clock read per section boundary, and none
		// at all when no profiler is attached.
		var hpT int64
		if hp != nil {
			hpT = hostprof.Now()
		}
		s.memory.Tick(now)
		if hp != nil {
			hpT = hp.AddSince(hostprof.SecTickDRAM, hpT)
		}
		s.unit.Tick(now)
		if hp != nil {
			hpT = hp.AddSince(hostprof.SecTickMMU, hpT)
		}
		s.compTicks += chTicks + 1
		for i, c := range s.cores {
			if now < s.starts[i] {
				continue
			}
			c.Tick(now - s.starts[i])
			s.compTicks++
		}
		if hp != nil {
			hpT = hp.AddSince(hostprof.SecTickCore, hpT)
		}
		s.phaseScan(now)
		// Event skipping: every component reports the earliest cycle at
		// which its state can change. The horizon must be computed after
		// the ticks — a request submitted this cycle may have armed the
		// MMU or DRAM. Anything at or before now+1 means the next cycle
		// must tick normally; otherwise no component changes state in
		// (now, next), so the window is fast-forwarded and the ticks it
		// would have run are no-ops by construction.
		next := s.memory.NextEventAfter(now)
		if next > now+1 {
			if e := s.unit.NextEventAfter(now); e < next {
				next = e
			}
		}
		if next > now+1 {
			for i, c := range s.cores {
				if now < s.starts[i] {
					next = min(next, s.starts[i])
				} else if e := c.NextEventAfter(now-s.starts[i]) + s.starts[i]; e < next {
					next = e
				}
				if next <= now+1 {
					break
				}
			}
		}
		if next <= now+1 {
			if hp != nil {
				hp.AddSince(hostprof.SecKernelHeap, hpT)
			}
			now++
			continue
		}
		if next >= farFuture {
			return 0, fmt.Errorf("sim: system wedged at cycle %d with no pending events: %s", now, describeWedge(s.cores, s.unit))
		}
		if invariant.Enabled {
			invariant.Check(next > now+1,
				"sim: fast-forward target %d does not advance past %d", next, now)
		}
		if done != nil {
			select {
			case <-done:
				return 0, s.cancelled(ctx, now)
			default:
			}
		}
		s.loopSkips++
		s.loopSkipped += (next - now - 1).Int64()
		if s.sink != nil {
			s.sink.Emit(obs.Event{Cycle: now, Kind: obs.KindSkipWindow, Core: -1, A: (next - now - 1).Int64()})
		}
		s.memory.SkipTo(next)
		s.unit.SkipTo(next)
		for i, c := range s.cores {
			if now >= s.starts[i] {
				c.SkipTo(next - s.starts[i])
			}
		}
		if hp != nil {
			hp.AddSince(hostprof.SecKernelHeap, hpT)
		}
		now = next
	}
	return now, nil
}
