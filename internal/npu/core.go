package npu

import (
	"fmt"
	"slices"

	"mnpusim/internal/clock"
	"mnpusim/internal/invariant"
	"mnpusim/internal/mem"
	"mnpusim/internal/obs"
	"mnpusim/internal/tile"
)

// Submitter accepts virtually addressed requests from the DMA engine;
// *mmu.MMU satisfies it.
type Submitter interface {
	// Submit offers r at global cycle now and says whether it was
	// admitted, or why not.
	Submit(now clock.Global, r *mem.Request) mem.Admission
	// MSHRFull reports whether core's pending-walk limit is still
	// reached, so that a request Submit refused with mem.MSHRFull would
	// be refused again.
	MSHRFull(core int) bool
	// ChargeMSHRStalls counts n more mem.MSHRFull refusals against
	// core: the re-submissions of the cycles it slept through.
	ChargeMSHRStalls(core int, n int64)
}

// Stats aggregates a core's execution counters. Cycle counts are in the
// core's local clock.
type Stats struct {
	LocalCycles       int64
	ComputeBusyCycles int64
	LoadStallCycles   int64
	Iterations        int
	FirstIterCycles   int64 // local cycles to finish the first inference
	FirstIterMACs     int64
	LoadRequests      int64
	StoreRequests     int64
	BytesLoaded       int64
	BytesStored       int64
	// LayerEndCycles records, for the first iteration, the local cycle
	// at which each layer's last tile finished computing (the
	// execution_cycle output of the original simulator).
	LayerEndCycles map[int]int64
}

// Utilization returns first-iteration MACs per PE-cycle: the paper's PE
// utilization output.
func (s Stats) Utilization(a ArchConfig) float64 {
	if s.FirstIterCycles == 0 {
		return 0
	}
	return float64(s.FirstIterMACs) / (float64(a.Array.PEs()) * float64(s.FirstIterCycles))
}

// Core executes one tile schedule with double buffering: while tile i
// occupies the systolic array, the DMA engine streams tile i+1's
// operands into the spare scratchpad half and drains finished outputs.
// The core keeps re-running its schedule (a looping co-runner) until the
// simulation ends; the first iteration's cycle count is the measured
// latency.
type Core struct {
	id    int
	arch  ArchConfig
	sched *tile.Schedule
	dom   clock.Domain
	mmu   Submitter

	localDone clock.Local

	// Load pipeline. loadedThrough is the last fully loaded tile.
	loadTile      int
	loadEmit      emitter
	loadInflight  int
	loadedThrough int
	pendingReq    *mem.Request // built but not yet accepted by the MMU

	// mshrWait is set while pendingReq's last refusal was mem.MSHRFull.
	// The core sleeps while the MMU still reports its MSHR full, and
	// stallFrom is the first cycle of that sleep whose re-submission is
	// not yet charged (see settleStall).
	mshrWait  bool
	stallFrom clock.Global

	// Compute pipeline.
	computeTile int
	computeRem  clock.Local
	computeInit bool

	// Store pipeline: emitters for completed tiles, drained in order.
	storeQueue    []emitter
	storeInflight int

	inflight int

	// free holds requests whose bursts completed, for buildRequest to
	// reuse: after Complete returns, nothing else holds a core's data
	// request.
	free []*mem.Request

	finishedFirst bool

	// Obs, if non-nil, receives structured probe events (tile start and
	// finish, SPM double-buffer swaps, DMA issue/complete, iteration
	// ends). Observation never alters execution.
	Obs obs.Sink

	// StartCycle is the global cycle at which a delayed core starts
	// executing. The main loop ticks such a core with now-StartCycle, so
	// everything the core hands outside itself (MMU submissions and
	// probe timestamps) adds it back onto the true timeline.
	StartCycle clock.Global

	stats Stats
}

// NewCore builds a core executing sched. The clock domain must map the
// core's frequency to the global clock; submitter is the MMU port.
func NewCore(id int, arch ArchConfig, sched *tile.Schedule, dom clock.Domain, submitter Submitter) (*Core, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if len(sched.Tasks) == 0 {
		return nil, fmt.Errorf("npu: core %d given an empty schedule", id)
	}
	c := &Core{
		id:            id,
		arch:          arch,
		sched:         sched,
		dom:           dom,
		mmu:           submitter,
		loadedThrough: -1,
	}
	c.stats.LayerEndCycles = make(map[int]int64)
	c.loadEmit = newEmitter(sched.Tasks[0].Loads, arch.BlockBytes)
	return c, nil
}

// Stats snapshots the counters.
func (c *Core) Stats() Stats { return c.stats }

// FinishedFirstIteration reports whether the measured inference is done.
func (c *Core) FinishedFirstIteration() bool { return c.finishedFirst }

// Tick advances the core to global cycle now: it processes the local
// cycles that elapsed since the previous tick, advancing compute and
// issuing DMA requests.
func (c *Core) Tick(now clock.Global) {
	c.settleStall(now)
	targetLocal := c.dom.LocalFloor(now + 1)
	elapsed := targetLocal - c.localDone
	if invariant.Enabled {
		invariant.Check(elapsed >= 0,
			"npu: core %d local clock would run backwards: done=%d target=%d (global %d)",
			c.id, c.localDone, targetLocal, now)
	}
	if elapsed <= 0 {
		return
	}
	c.advanceCompute(elapsed)
	c.issueDMA(now, elapsed)
	c.localDone = targetLocal
	c.stats.LocalCycles = c.localDone.Int64()
	c.checkIterationEnd(now)
}

// obsGlobal maps a core-local cycle onto the true global timeline.
func (c *Core) obsGlobal(localCycle clock.Local) clock.Global {
	return c.dom.ToGlobal(localCycle) + c.StartCycle
}

// advanceCompute spends up to elapsed local cycles on the systolic
// array, possibly completing several small tiles.
func (c *Core) advanceCompute(elapsed clock.Local) {
	rem := elapsed
	for rem > 0 {
		if c.computeTile >= len(c.sched.Tasks) || c.loadedThrough < c.computeTile {
			c.stats.LoadStallCycles += rem.Int64()
			return
		}
		if !c.computeInit {
			// The schedule's tile costs are plain int64 durations; this is
			// where they enter the typed local-clock domain.
			//lint:allow cycletypes tile.Task.ComputeCycles is a validated local-cycle duration from the cost model
			c.computeRem = clock.Local(c.sched.Tasks[c.computeTile].ComputeCycles)
			c.computeInit = true
			if c.Obs != nil {
				c.Obs.Emit(obs.Event{Cycle: c.obsGlobal(c.localDone + (elapsed - rem)), Kind: obs.KindTileStart,
					Core: int32(c.id), A: int64(c.computeTile), B: int64(c.sched.Tasks[c.computeTile].Layer)})
			}
		}
		step := min(rem, c.computeRem)
		c.computeRem -= step
		rem -= step
		c.stats.ComputeBusyCycles += step.Int64()
		if c.computeRem == 0 {
			c.completeTile(elapsed - rem)
		}
	}
}

// completeTile finishes the current compute tile at local offset `at`
// within this tick.
func (c *Core) completeTile(at clock.Local) {
	t := &c.sched.Tasks[c.computeTile]
	if !c.finishedFirst {
		c.stats.FirstIterMACs += t.MACs
		c.stats.LayerEndCycles[t.Layer] = (c.localDone + at).Int64()
	}
	if len(t.Stores) > 0 {
		c.storeQueue = append(c.storeQueue, newEmitter(t.Stores, c.arch.BlockBytes))
	}
	if c.Obs != nil {
		c.Obs.Emit(obs.Event{Cycle: c.obsGlobal(c.localDone + at), Kind: obs.KindTileFinish,
			Core: int32(c.id), A: int64(c.computeTile), B: int64(t.Layer)})
	}
	c.computeTile++
	c.computeInit = false
}

// issueDMA hands up to elapsed*DMAIssuePerCycle requests to the MMU,
// loads first (they gate compute), stores opportunistically.
func (c *Core) issueDMA(now clock.Global, elapsed clock.Local) {
	c.advanceLoadWindow(now)
	allow := elapsed.Int64() * int64(c.arch.DMAIssuePerCycle)
	for allow > 0 && c.inflight < c.arch.DMAMaxInflight {
		if c.pendingReq == nil {
			c.pendingReq = c.nextRequest()
			if c.pendingReq == nil {
				return
			}
		}
		a := c.mmu.Submit(now+c.StartCycle, c.pendingReq)
		c.mshrWait = a == mem.MSHRFull
		if a != mem.Admitted {
			// Ports busy: retry next tick. MSHR full: sleep until one
			// of this core's walks completes (see stalled).
			c.stallFrom = now + 1
			return
		}
		r := c.pendingReq
		c.pendingReq = nil
		c.inflight++
		if r.Kind == mem.Read {
			c.loadInflight++
			c.stats.LoadRequests++
			c.stats.BytesLoaded += int64(r.Size)
		} else {
			c.storeInflight++
			c.stats.StoreRequests++
			c.stats.BytesStored += int64(r.Size)
		}
		if c.Obs != nil {
			var wr int32
			if r.Kind == mem.Write {
				wr = 1
			}
			c.Obs.Emit(obs.Event{Cycle: now + c.StartCycle, Kind: obs.KindDMAIssue,
				Core: int32(c.id), Unit: wr, A: int64(c.inflight), B: int64(r.VAddr)})
		}
		allow--
		c.advanceLoadWindow(now)
	}
}

// loadWindow returns the highest tile index whose loads may start: with
// double buffering the tile after the one computing; without it, only
// the computing tile itself.
func (c *Core) loadWindow() int {
	if c.arch.NoDoubleBuffer {
		return c.computeTile
	}
	return c.computeTile + 1
}

// nextRequest builds the next DMA request: the current load tile first,
// then any queued stores.
func (c *Core) nextRequest() *mem.Request {
	if c.loadTile < len(c.sched.Tasks) && c.loadTile <= c.loadWindow() {
		if addr, ok := c.loadEmit.emit(); ok {
			return c.buildRequest(addr, mem.Read)
		}
	}
	for len(c.storeQueue) > 0 {
		if addr, ok := c.storeQueue[0].emit(); ok {
			return c.buildRequest(addr, mem.Write)
		}
		// Shift rather than reslice, so completeTile's appends reuse
		// the backing array.
		c.storeQueue = slices.Delete(c.storeQueue, 0, 1)
	}
	return nil
}

// requestSlab is how many requests a core allocates at once when its
// free list runs dry.
const requestSlab = 64

// buildRequest takes a request from the free list, refilling the list
// with a fresh slab when it is empty.
func (c *Core) buildRequest(addr uint64, kind mem.Kind) *mem.Request {
	if len(c.free) == 0 {
		slab := make([]mem.Request, requestSlab)
		for i := range slab {
			c.free = append(c.free, &slab[i])
		}
	}
	r := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	*r = mem.Request{Core: c.id, VAddr: addr, Size: uint32(c.arch.BlockBytes), Kind: kind, Class: mem.Data}
	return r
}

// Complete retires one of the core's requests whose burst finished at
// global cycle done, and takes r back for reuse: the caller must not
// touch r afterwards.
//
//lint:allow wakecontract audited stimulus seam: only dram.Memory.OnComplete calls it, at a burst's retirement, before the core ticks on done; the kernel's hook then re-arms this core at NextEventAfter(done-1), its post-completion horizon, and skipTo settles the bookkeeping of any cycle it sleeps through
func (c *Core) Complete(done clock.Global, r *mem.Request) {
	c.inflight--
	if r.Kind == mem.Read {
		c.loadInflight--
	} else {
		c.storeInflight--
	}
	if c.Obs != nil {
		// done is already on the true global timeline: memory
		// completions are delivered on the undelayed global clock.
		c.Obs.Emit(obs.Event{Cycle: done, Kind: obs.KindDMAComplete,
			Core: int32(c.id), A: int64(c.inflight)})
	}
	c.free = append(c.free, r)
}

// swapReady reports whether the current load tile is complete (all its
// requests issued and returned, none of them still pending) inside the
// double-buffer window, so the next tick swaps it in.
func (c *Core) swapReady() bool {
	return c.loadTile < len(c.sched.Tasks) &&
		c.loadTile <= c.loadWindow() &&
		c.loadEmit.done() &&
		c.loadInflight == 0 &&
		(c.pendingReq == nil || c.pendingReq.Kind != mem.Read)
}

// advanceLoadWindow marks the current load tile complete when all its
// requests returned, and opens the next tile if the double-buffer window
// (computeTile+1) allows.
func (c *Core) advanceLoadWindow(now clock.Global) {
	for c.swapReady() {
		c.loadedThrough = c.loadTile
		if c.Obs != nil {
			c.Obs.Emit(obs.Event{Cycle: now + c.StartCycle, Kind: obs.KindSPMSwap,
				Core: int32(c.id), A: int64(c.loadedThrough)})
		}
		c.loadTile++
		if c.loadTile < len(c.sched.Tasks) {
			c.loadEmit = newEmitter(c.sched.Tasks[c.loadTile].Loads, c.arch.BlockBytes)
		}
	}
	if invariant.Enabled {
		// SPM double-buffer overlap: the scratchpad holds the computing
		// tile plus at most one prefetched tile, so the load pipeline
		// must never run further ahead of compute than the window.
		invariant.Check(c.loadedThrough <= c.loadWindow(),
			"npu: core %d SPM overlap: loadedThrough=%d exceeds window=%d (compute=%d)",
			c.id, c.loadedThrough, c.loadWindow(), c.computeTile)
		invariant.Check(c.loadTile <= c.loadedThrough+1,
			"npu: core %d load pipeline skipped a tile: loadTile=%d loadedThrough=%d",
			c.id, c.loadTile, c.loadedThrough)
	}
}

// checkIterationEnd detects the end of one full inference (all tiles
// computed, all stores drained) and restarts the schedule so the core
// keeps generating co-runner contention.
func (c *Core) checkIterationEnd(now clock.Global) {
	if c.computeTile < len(c.sched.Tasks) ||
		len(c.storeQueue) > 0 || c.storeInflight > 0 ||
		c.loadInflight > 0 || c.pendingReq != nil {
		return
	}
	c.stats.Iterations++
	if c.Obs != nil {
		c.Obs.Emit(obs.Event{Cycle: now + c.StartCycle, Kind: obs.KindIterDone,
			Core: int32(c.id), A: int64(c.stats.Iterations)})
	}
	if !c.finishedFirst {
		c.finishedFirst = true
		c.stats.FirstIterCycles = c.localDone.Int64()
	}
	c.computeTile = 0
	c.computeInit = false
	c.loadTile = 0
	c.loadedThrough = -1
	c.loadEmit = newEmitter(c.sched.Tasks[0].Loads, c.arch.BlockBytes)
}

// stalled reports whether the core is asleep on a full MSHR: its
// pending request was last refused with mem.MSHRFull and the MMU still
// reports the MSHR full. The MSHR is read again on every call, never
// latched: a walk completion can free it on a cycle on which the core's
// clock does not advance, and the core must then retry on its next
// local cycle.
func (c *Core) stalled() bool { return c.mshrWait && c.mmu.MSHRFull(c.id) }

// settleStall charges the re-submissions of the slept cycles
// [stallFrom, upto) while the core waits on a full MSHR. A busy-polling
// core re-submits on every cycle its clock advances (its in-flight
// count only falls while it waits, so the DMA limit never blocks the
// retry), and every such retry is refused: the MSHR frees only when
// one of the core's walks completes, and that wakes the core on the
// same cycle. LocalFloor is a linear floor, so a global step advances
// it at most once when the core is slower than the global clock, and
// at least once otherwise; the count is the smaller of the two spans.
func (c *Core) settleStall(upto clock.Global) {
	if !c.mshrWait || upto <= c.stallFrom {
		return
	}
	if invariant.Enabled {
		invariant.Check(c.inflight < c.arch.DMAMaxInflight,
			"npu: core %d charged MSHR retries with its DMA limit reached (inflight=%d)", c.id, c.inflight)
	}
	n := min((upto - c.stallFrom).Int64(), (c.dom.LocalFloor(upto) - c.dom.LocalFloor(c.stallFrom)).Int64())
	if n > 0 {
		c.mmu.ChargeMSHRStalls(c.id, n)
	}
	c.stallFrom = upto
}

// HasIssuableWork reports whether the core could issue a DMA request or
// otherwise change pipeline state on its next ticked cycle (used for
// fast-forward and wake decisions).
func (c *Core) HasIssuableWork() bool {
	if c.swapReady() {
		// Every request of the load tile has returned: the next tick
		// performs the SPM double-buffer swap, opening the tile to
		// compute and the next tile to loading. Without this case a
		// core whose only in-flight traffic is stores would sleep
		// through its own swap, and so would a core asleep on a full
		// MSHR with a store pending whose last load returned on a
		// cycle its clock did not advance.
		return true
	}
	if c.pendingReq != nil {
		// Nothing behind the pending request can issue first. While it
		// waits on a full MSHR, nothing else changes without a
		// stimulus: a tile completion is the compute horizon, and a
		// DMA completion and the walk completion that frees the MSHR
		// wake the core.
		return !c.stalled()
	}
	if c.loadTile < len(c.sched.Tasks) && c.loadTile <= c.loadWindow() && !c.loadEmit.done() {
		return true
	}
	return len(c.storeQueue) > 0
}

// NextEventAfter returns the earliest global cycle at which the core
// needs ticking: immediately if it can issue requests, at compute
// completion if it is purely computing, or far in the future if it only
// waits on memory responses.
func (c *Core) NextEventAfter(now clock.Global) clock.Global {
	if c.HasIssuableWork() {
		return now + 1
	}
	if c.computeTile < len(c.sched.Tasks) && c.loadedThrough >= c.computeTile {
		if !c.computeInit {
			// The tile is loaded but not yet started: the next ticked
			// cycle initializes it (emitting its start probe and
			// splitting the busy/stall accounting), so the core must
			// wake immediately rather than at the projected finish.
			return now + 1
		}
		// A completion at local cycle L fires during the global tick
		// whose window first covers L: Tick(T) processes through
		// LocalFloor(T+1), so that tick is ToGlobal(L)-1, not
		// ToGlobal(L).
		return c.dom.ToGlobal(c.localDone+c.computeRem) - 1
	}
	if c.inflight > 0 {
		return clock.FarFuture // memory callbacks will create work
	}
	return now + 1 // iteration restart
}

// SkipTo fast-forwards the core to global cycle now without observing
// any events: the skipped window is spent computing (or stalling on
// loads) exactly as per-cycle ticking would, but no tile completes and
// no request is issued; re-submissions into a full MSHR are charged.
// The caller guarantees now is at or before the core's NextEventAfter,
// which makes these properties hold: the local target LocalFloor(now)
// is strictly before the pending completion, and HasIssuableWork was
// false with no memory callback or freeing walk in the window.
func (c *Core) SkipTo(now clock.Global) {
	c.settleStall(now)
	targetLocal := c.dom.LocalFloor(now)
	elapsed := targetLocal - c.localDone
	if elapsed <= 0 {
		return
	}
	tileBefore := c.computeTile
	c.advanceCompute(elapsed)
	if invariant.Enabled {
		// The skip window was chosen to end strictly before the pending
		// tile completion; a tile finishing inside it means the skipped
		// cycles would have emitted stores and issued requests.
		invariant.Check(c.computeTile == tileBefore,
			"npu: core %d completed tile %d inside a skipped window ending at global %d",
			c.id, tileBefore, now)
	}
	c.localDone = targetLocal
	c.stats.LocalCycles = c.localDone.Int64()
}

// DebugState summarizes the pipeline state for diagnostics.
func (c *Core) DebugState() string {
	return fmt.Sprintf("load=%d/%d loaded=%d compute=%d rem=%d inflight=%d loadInf=%d storeInf=%d storeQ=%d pending=%v mshrStalled=%v emitDone=%v",
		c.loadTile, len(c.sched.Tasks), c.loadedThrough, c.computeTile, c.computeRem,
		c.inflight, c.loadInflight, c.storeInflight, len(c.storeQueue), c.pendingReq != nil, c.stalled(), c.loadEmit.done())
}
