package sim

import (
	"context"
	"fmt"

	"mnpusim/internal/clock"
	"mnpusim/internal/dram"
	"mnpusim/internal/mem"
	"mnpusim/internal/mmu"
	"mnpusim/internal/npu"
	"mnpusim/internal/obs"
	"mnpusim/internal/obs/hostprof"
	"mnpusim/internal/tile"
)

// CoreResult summarizes one core's measured inference.
type CoreResult struct {
	Net string
	// Cycles is the first-iteration latency in the core's local clock:
	// the avg_cycle output of the original simulator.
	Cycles int64
	// Utilization is PE utilization over the first iteration.
	Utilization float64
	// Iterations counts completed inferences including co-runner loops.
	Iterations int
	// TrafficBytes is the schedule's off-chip traffic per inference.
	TrafficBytes int64
	// FootprintBytes is the virtual-address footprint (the
	// memory_footprint output).
	FootprintBytes int64
	// LayerEndCycles maps layer index to first-iteration completion
	// cycle (the execution_cycle output).
	LayerEndCycles map[int]int64

	NPU npu.Stats
	MMU mmu.CoreStats
	// TLBHitRate is the hit rate of the TLB serving this core (shared
	// TLBs report the merged rate).
	TLBHitRate float64
	// DataBytes and PTBytes split completed DRAM traffic by class.
	DataBytes int64
	PTBytes   int64
}

// Result is the outcome of one simulation.
type Result struct {
	Cores        []CoreResult
	GlobalCycles int64
	DRAM         dram.Stats
	Sharing      Sharing
}

// DRAMEnergy returns the off-chip energy breakdown of the run under the
// given energy parameters.
func (r Result) DRAMEnergy(p dram.EnergyParams) dram.EnergyBreakdown {
	return r.DRAM.Energy(p, r.GlobalCycles)
}

// farFuture is the "no pending event" horizon on the global clock.
const farFuture clock.Global = clock.FarFuture

// cancelCheckMask throttles how often the main loop polls the context's
// done channel: every 64 processed cycles. A processed cycle is the
// unit of real work, so the poll interval bounds cancellation latency.
const cancelCheckMask = 63

// Run executes the configured system until every core completes its
// first inference (co-runners loop to keep generating contention, per
// the mix methodology of §4.1.1), and returns the per-core results.
//
// Run is RunContext with a background (never-cancelled) context.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// system is one fully built simulation: the hardware, the probe sink,
// the event kernel, and the main-loop bookkeeping.
type system struct {
	cfg    Config
	memory *dram.Memory
	unit   *mmu.MMU
	cores  []*npu.Core
	scheds []*tile.Schedule
	starts []clock.Global
	sink   obs.Sink
	ek     *eventKernel

	// finished tracks which cores already emitted their first-inference
	// phase event; nil when no sink is attached.
	finished []bool

	// Loop bookkeeping: processed cycles, and the quiet windows jumped
	// between them (reported as skip-window probe events).
	loopIters, loopSkips, loopSkipped int64

	// compTicks counts per-component Tick invocations (one per channel,
	// MMU, or core per ticked cycle); the headline metric the event
	// kernel reduces.
	compTicks int64
}

func (s *system) allDone() bool {
	for _, c := range s.cores {
		if !c.FinishedFirstIteration() {
			return false
		}
	}
	return true
}

// phaseScan emits a first-inference phase event for every core that
// newly finished during cycle now; the main loop calls it after every
// processed cycle.
func (s *system) phaseScan(now clock.Global) {
	if s.sink == nil {
		return
	}
	for i, c := range s.cores {
		if !s.finished[i] && c.FinishedFirstIteration() {
			s.finished[i] = true
			s.sink.Emit(obs.Event{Cycle: now, Kind: obs.KindPhase, Core: int32(i), Str: obs.PhaseFirstInference})
		}
	}
}

func (s *system) cancelled(ctx context.Context, at clock.Global) error {
	return fmt.Errorf("sim: run cancelled at cycle %d: %w", at, ctx.Err())
}

// RunContext is Run with cancellation: if ctx is cancelled or its
// deadline passes mid-run, the simulation stops within a bounded number
// of processed cycles and returns an error wrapping ctx.Err(). A
// cancelled run returns a zero Result; partial simulation state is
// discarded. The simulation itself is single-goroutine, so cancellation
// leaks nothing.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("sim: run not started: %w", err)
	}
	s, err := newSystem(cfg, true)
	if err != nil {
		return Result{}, err
	}
	return s.run(ctx, s.runEvent)
}

// newSystem validates cfg and builds its hardware and software. Both
// loops share the one completion path: the memory's OnComplete hands a
// page-table read to the MMU (ReadDone) and a data burst to its core
// (Complete). With event set it also creates the event kernel and wires
// its stimulus seams, the completion hook's wake among them; without,
// the system carries no wake hooks at all (the form the tests'
// tick-everything reference loop drives).
func newSystem(cfg Config, event bool) (*system, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Cores()

	// Build the hardware.
	memory, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	for i, set := range cfg.channelSets() {
		if err := memory.SetCoreChannels(i, set); err != nil {
			return nil, err
		}
	}

	tables := make([]*mmu.PageTable, n)
	for i := 0; i < n; i++ {
		alloc := mmu.NewPhysAllocator(uint64(i)*cfg.PhysBytesPerCore, cfg.PhysBytesPerCore, cfg.PageSize)
		tables[i] = mmu.NewPageTable(cfg.PageSize, cfg.WalkLevels, alloc)
	}
	unit, err := mmu.New(cfg.mmuConfig(), memory, tables)
	if err != nil {
		return nil, err
	}

	// One probe stream, fanned out to the caller's sink and the metrics
	// registry.
	sink := cfg.Obs
	if cfg.Metrics != nil {
		sink = obs.Tee(sink, obs.NewRegistrySink(cfg.Metrics))
	}
	// The profiler times the whole sink chain (caller's sink + registry
	// fold) at the emission boundary; with no profiler the sink passes
	// through unwrapped, preserving the nil fast path.
	sink = cfg.HostProf.WrapSink(sink)
	memory.SetObs(sink)
	unit.SetObs(sink)

	starts := cfg.StartCycles
	if starts == nil {
		starts = make([]clock.Global, n)
	}

	// A retired burst goes to its consumer, which the event kernel, if
	// any, then wakes: the MMU for a page-table read on the completion
	// cycle, the issuing core for data at its post-completion horizon.
	// The core has not ticked on done (channels tick first), so its
	// horizon after done-1 is the first cycle on which a tick would do
	// more than the bookkeeping skipTo settles: a completion that leaves
	// the core nothing new to do does not wake it.
	chs := memory.Channels()
	cores := make([]*npu.Core, n)
	var ek *eventKernel
	memory.OnComplete = func(done clock.Global, r *mem.Request) {
		if r.Class == mem.PageTable {
			unit.ReadDone(r)
			if ek != nil {
				ek.wake(chs, done)
			}
			return
		}
		id := chs + 1 + r.Core
		cores[r.Core].Complete(done, r) // takes r back for reuse
		if ek != nil {
			ek.wake(id, ek.comps[id].next(done-1))
		}
	}

	// The event kernel is created before the cores so its wake function
	// can be wired into the stimulus seams: DRAM enqueues, burst
	// completions and freed queue slots (memory hooks), freed MSHR
	// slots (an MMU hook) and DMA submissions (the per-core Submitter
	// wrapper). Component ids fix the within-cycle order: channels,
	// MMU, cores.
	if event {
		ek = newEventKernel(chs + 1 + n)
		// An enqueue re-arms the landing channel at the channel's own
		// recomputed horizon, not blindly now+1: the fresh request's
		// earliest command may sit behind bank or bus timers, and a
		// tick-everything loop's fast-forward (which recomputes the
		// device horizon after every cycle) would skip straight to it.
		// More work can only move the horizon earlier, so wake()'s
		// earlier-only rule applies cleanly.
		memory.OnEnqueue = func(now clock.Global, ch int) { ek.wake(ch, memory.ChannelNextEventAfter(ch, now)) }
		// A slot freed in a full channel wakes the MMU in the same cycle
		// (channels tick before it): the MMU sleeps while every request it
		// could admit waits on a full channel.
		memory.OnSlotFreed = func(now clock.Global, ch int) { ek.wake(chs, now) }
		// A walk that frees a slot in its core's full MSHR wakes that
		// core in the same cycle (the MMU ticks before the cores): a
		// core sleeps while its pending request could only be refused
		// for a full MSHR, and only its own walks free it (TLB entries
		// are tagged with the core's address space).
		unit.OnMSHRFreed = func(now clock.Global, core int) { ek.wake(chs+1+core, now) }
	}

	// Compile the software and build the cores.
	scheds := make([]*tile.Schedule, n)
	for i := 0; i < n; i++ {
		a := cfg.Arch[i]
		sched, err := tile.BuildCached(cfg.Nets[i], tile.Params{
			Array:      a.Array,
			Dataflow:   a.Dataflow,
			SPMBytes:   a.SPMBytes,
			DTypeBytes: a.DTypeBytes,
			BlockBytes: a.BlockBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: core %d: %w", i, err)
		}
		scheds[i] = sched
		dom := clock.NewDomain(a.FreqHz, clock.Hz(cfg.DRAM.FreqHz))
		submitter := npu.Submitter(unit)
		if ek != nil {
			submitter = &wakeSubmitter{MMU: unit, ek: ek, mmuID: chs}
		}
		core, err := npu.NewCore(i, a, sched, dom, submitter)
		if err != nil {
			return nil, err
		}
		core.Obs = sink
		core.StartCycle = starts[i]
		cores[i] = core
	}

	return &system{
		cfg:    cfg,
		memory: memory,
		unit:   unit,
		cores:  cores,
		scheds: scheds,
		starts: starts,
		sink:   sink,
		ek:     ek,
	}, nil
}

// run drives the built system to completion with loop (the event
// kernel, or the tests' tick reference) and assembles the Result.
func (s *system) run(ctx context.Context, loop func(context.Context) (clock.Global, error)) (Result, error) {
	cfg := s.cfg
	n := cfg.Cores()
	if s.sink != nil {
		s.sink.Emit(obs.Event{Cycle: 0, Kind: obs.KindRunStart, Core: -1, A: int64(n), Str: cfg.Sharing.String()})
		for i := 0; i < n; i++ {
			s.sink.Emit(obs.Event{Cycle: 0, Kind: obs.KindCoreInfo, Core: int32(i), Str: cfg.Nets[i].Name})
		}
		s.finished = make([]bool, n)
	}

	var hpRun int64
	if cfg.HostProf != nil {
		hpRun = hostprof.Now()
	}
	now, err := loop(ctx)
	if cfg.HostProf != nil {
		cfg.HostProf.Add(hostprof.SecRun, hostprof.Now()-hpRun)
	}
	if err != nil {
		return Result{}, err
	}

	if s.sink != nil {
		s.sink.Emit(obs.Event{Cycle: now, Kind: obs.KindRunEnd, Core: -1, A: now.Int64(), B: s.loopIters})
	}
	if reg := cfg.Metrics; reg != nil {
		// Kernel cost counters, written directly rather than through
		// the probe stream: component-tick invocations and scheduling
		// work. sim.heap_pops, named after the kernel's former heap,
		// counts the wake-array entries the kernel reads.
		reg.Counter("sim.component_ticks").Add(s.compTicks)
		if s.ek != nil {
			reg.Counter("sim.heap_pops").Add(s.ek.scans)
		}
		cfg.HostProf.Publish(reg)
	}

	res := Result{
		Cores:        make([]CoreResult, n),
		GlobalCycles: now.Int64(),
		DRAM:         s.memory.Stats(),
		Sharing:      cfg.Sharing,
	}
	for i, c := range s.cores {
		st := c.Stats()
		moved := s.memory.MovedBy(i)
		res.Cores[i] = CoreResult{
			Net:            cfg.Nets[i].Name,
			Cycles:         st.FirstIterCycles,
			Utilization:    st.Utilization(cfg.Arch[i]),
			Iterations:     st.Iterations,
			TrafficBytes:   s.scheds[i].TrafficBytes(),
			FootprintBytes: s.scheds[i].FootprintBytes,
			LayerEndCycles: st.LayerEndCycles,
			NPU:            st,
			MMU:            s.unit.Stats(i),
			DataBytes:      moved.Data,
			PTBytes:        moved.PageTable,
		}
		if !cfg.NoTranslation {
			res.Cores[i].TLBHitRate = s.unit.TLBFor(i).HitRate()
		}
	}
	return res, nil
}

// RunIdeal runs each core's workload alone on the Ideal configuration
// derived from cfg, returning one single-core result per workload. These
// are the normalization baselines for speedup and slowdown.
func RunIdeal(cfg Config) ([]CoreResult, error) {
	return RunIdealContext(context.Background(), cfg)
}

// RunIdealContext is RunIdeal with cancellation; the per-core Ideal runs
// execute sequentially, each under ctx.
func RunIdealContext(ctx context.Context, cfg Config) ([]CoreResult, error) {
	out := make([]CoreResult, cfg.Cores())
	for i := range out {
		r, err := RunContext(ctx, IdealFor(cfg, i))
		if err != nil {
			return nil, fmt.Errorf("sim: ideal run for core %d: %w", i, err)
		}
		out[i] = r.Cores[0]
	}
	return out, nil
}

// describeWedge reports per-core pipeline state for the wedge error.
func describeWedge(cores []*npu.Core, unit *mmu.MMU) string {
	s := ""
	for i, c := range cores {
		s += fmt.Sprintf(" core%d{%s pendingWalks=%d walkersInUse=%d}", i, c.DebugState(), unit.PendingWalks(i), unit.WalkersInUse(i))
	}
	return s
}
