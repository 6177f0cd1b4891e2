package npu

import (
	"testing"
	"testing/quick"

	"mnpusim/internal/clock"
	"mnpusim/internal/mem"
	"mnpusim/internal/model"
	"mnpusim/internal/tile"
)

func TestArchValidate(t *testing.T) {
	for _, preset := range []ArchConfig{TPUv4(), TinyCore(), SmallCore()} {
		if err := preset.Validate(); err != nil {
			t.Errorf("%s: %v", preset.Name, err)
		}
	}
	bad := TinyCore()
	bad.SPMBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero SPM accepted")
	}
	bad = TinyCore()
	bad.DMAIssuePerCycle = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero DMA issue accepted")
	}
}

func TestTPUv4MatchesTable2(t *testing.T) {
	a := TPUv4()
	if a.Array.Rows != 128 || a.Array.Cols != 128 {
		t.Errorf("array = %s, want 128x128", a.Array)
	}
	if a.SPMBytes != 36<<20 {
		t.Errorf("SPM = %d, want 36MB", a.SPMBytes)
	}
	if a.FreqHz != clock.GHz {
		t.Errorf("freq = %v, want 1GHz", a.FreqHz)
	}
}

func TestEmitterExpandsSlices(t *testing.T) {
	slices := []tile.Slice{{Addr: 0, Bytes: 128}, {Addr: 256, Bytes: 64}}
	e := newEmitter(slices, 64)
	var addrs []uint64
	for {
		a, ok := e.emit()
		if !ok {
			break
		}
		addrs = append(addrs, a)
	}
	want := []uint64{0, 64, 256}
	if len(addrs) != len(want) {
		t.Fatalf("emitted %v", addrs)
	}
	for i := range want {
		if addrs[i] != want[i] {
			t.Errorf("addr[%d] = %#x, want %#x", i, addrs[i], want[i])
		}
	}
}

func TestEmitterUnalignedSlice(t *testing.T) {
	// A slice straddling block boundaries covers every touched block.
	e := newEmitter([]tile.Slice{{Addr: 60, Bytes: 10}}, 64)
	a1, ok1 := e.emit()
	a2, ok2 := e.emit()
	_, ok3 := e.emit()
	if !ok1 || !ok2 || ok3 || a1 != 0 || a2 != 64 {
		t.Errorf("unaligned expansion: %v %v %v %v %v", a1, ok1, a2, ok2, ok3)
	}
}

func TestEmitterSkipsEmptySlices(t *testing.T) {
	e := newEmitter([]tile.Slice{{Addr: 0, Bytes: 0}, {Addr: 128, Bytes: 1}}, 64)
	a, ok := e.emit()
	if !ok || a != 128 {
		t.Errorf("got %#x %v", a, ok)
	}
	if _, ok := e.emit(); ok {
		t.Error("expected exhaustion")
	}
}

// countBlocks returns the total number of block requests the slices
// expand to, counted without emitting.
func countBlocks(slices []tile.Slice, blockBytes int) int64 {
	blk := uint64(blockBytes)
	var n int64
	for _, s := range slices {
		if s.Bytes <= 0 {
			continue
		}
		lo := s.Addr &^ (blk - 1)
		hi := (s.Addr + uint64(s.Bytes) + blk - 1) &^ (blk - 1)
		n += int64((hi - lo) / blk)
	}
	return n
}

// Property: emit() yields exactly countBlocks addresses, all aligned,
// and together they cover every byte of every slice.
func TestQuickEmitterCoverage(t *testing.T) {
	f := func(aRaw uint16, bRaw uint8, cRaw uint16, dRaw uint8) bool {
		slices := []tile.Slice{
			{Addr: uint64(aRaw), Bytes: int64(bRaw)},
			{Addr: uint64(cRaw) + 1<<20, Bytes: int64(dRaw)},
		}
		e := newEmitter(slices, 64)
		covered := map[uint64]bool{}
		n := int64(0)
		for {
			a, ok := e.emit()
			if !ok {
				break
			}
			if a%64 != 0 {
				return false
			}
			covered[a] = true
			n++
		}
		if n != countBlocks(slices, 64) {
			return false
		}
		for _, s := range slices {
			for b := s.Addr; b < s.Addr+uint64(s.Bytes); b++ {
				if !covered[b&^63] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// noMSHR is the MSHR half of a Submitter that never refuses a request
// for a full MSHR.
type noMSHR struct{}

func (noMSHR) MSHRFull(int) bool           { return false }
func (noMSHR) ChargeMSHRStalls(int, int64) {}

// completer delivers a fake submitter's completions as the
// simulator's completion hook does: to the core (mustCore wires it),
// then to arm, the wake-driven twin's re-arm, if set, at the core's
// post-completion horizon. Completions land before the core ticks on
// their cycle, so that horizon is NextEventAfter(now-1).
type completer struct {
	core *Core
	arm  func(at clock.Global)
}

func (c *completer) wire(core *Core) { c.core = core }

func (c *completer) deliver(now clock.Global, r *mem.Request) {
	c.core.Complete(now, r)
	if c.arm != nil {
		c.arm(c.core.NextEventAfter(now - 1))
	}
}

// mustCore builds core 0 on sub and wires sub's completions to it.
func mustCore(t *testing.T, arch ArchConfig, sched *tile.Schedule, dom clock.Domain, sub Submitter) *Core {
	t.Helper()
	c, err := NewCore(0, arch, sched, dom, sub)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := sub.(interface{ wire(*Core) }); ok {
		w.wire(c)
	}
	return c
}

// recordingSubmitter accepts requests and completes them after a fixed
// delay when ticked; it records issue times for overlap checks. While
// refuse is set it refuses every request as if the core's TLB ports
// were busy.
type recordingSubmitter struct {
	noMSHR
	completer
	delay   clock.Global
	pending []struct {
		at clock.Global
		r  *mem.Request
	}
	issues []struct {
		at   clock.Global
		kind mem.Kind
	}
	refuse bool
}

func (s *recordingSubmitter) Submit(now clock.Global, r *mem.Request) mem.Admission {
	if s.refuse {
		return mem.PortsBusy
	}
	s.issues = append(s.issues, struct {
		at   clock.Global
		kind mem.Kind
	}{now, r.Kind})
	s.pending = append(s.pending, struct {
		at clock.Global
		r  *mem.Request
	}{now + s.delay, r})
	return mem.Admitted
}

func (s *recordingSubmitter) tick(now clock.Global) {
	out := s.pending[:0]
	for _, p := range s.pending {
		if p.at <= now {
			s.deliver(now, p.r)
		} else {
			out = append(out, p)
		}
	}
	s.pending = out
}

func buildSchedule(t *testing.T, arch ArchConfig, net model.Network) *tile.Schedule {
	t.Helper()
	s, err := tile.Build(net, tile.Params{
		Array:      arch.Array,
		SPMBytes:   arch.SPMBytes,
		DTypeBytes: arch.DTypeBytes,
		BlockBytes: arch.BlockBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func multiTileNet() model.Network {
	return model.Network{Name: "mt", Layers: []model.Layer{
		{Name: "fc1", Kind: model.FC, M: 64, K: 2048, N: 64},
		{Name: "fc2", Kind: model.FC, M: 64, K: 64, N: 64},
	}}
}

func newTestCore(t *testing.T, sub Submitter) (*Core, ArchConfig) {
	t.Helper()
	arch := TinyCore()
	sched := buildSchedule(t, arch, multiTileNet())
	dom := clock.NewDomain(arch.FreqHz, clock.GHz)
	return mustCore(t, arch, sched, dom, sub), arch
}

// runCore drives a core and its submitter until the first iteration
// completes.
func runCore(t *testing.T, c *Core, s *recordingSubmitter, limit clock.Global) clock.Global {
	t.Helper()
	for now := clock.Global(0); now < limit; now++ {
		s.tick(now)
		c.Tick(now)
		if c.FinishedFirstIteration() {
			return now
		}
	}
	t.Fatalf("core did not finish in %d cycles: %s", limit, c.DebugState())
	return 0
}

func TestCoreExecutesSchedule(t *testing.T) {
	s := &recordingSubmitter{delay: 10}
	c, arch := newTestCore(t, s)
	runCore(t, c, s, 1_000_000)
	st := c.Stats()
	if st.FirstIterCycles <= 0 {
		t.Fatal("no first-iteration latency recorded")
	}
	if st.FirstIterMACs != c.sched.TotalMACs {
		t.Errorf("MACs = %d, want %d", st.FirstIterMACs, c.sched.TotalMACs)
	}
	wantLoads := int64(0)
	for _, task := range c.sched.Tasks {
		wantLoads += task.LoadBytes()
	}
	if st.BytesLoaded < wantLoads {
		t.Errorf("loaded %d bytes, schedule needs %d", st.BytesLoaded, wantLoads)
	}
	if u := st.Utilization(arch); u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
	if len(st.LayerEndCycles) != 2 {
		t.Errorf("layer end cycles: %v", st.LayerEndCycles)
	}
	if st.LayerEndCycles[0] >= st.LayerEndCycles[1] {
		t.Error("layer 0 should finish before layer 1")
	}
}

func TestCoreLoopsAfterFirstIteration(t *testing.T) {
	s := &recordingSubmitter{delay: 5}
	c, _ := newTestCore(t, s)
	end := runCore(t, c, s, 1_000_000)
	first := c.Stats().FirstIterCycles
	// Run for another full iteration's worth of cycles.
	for now := end + 1; now < end+2*clock.Global(first)+1000; now++ {
		s.tick(now)
		c.Tick(now)
	}
	if c.Stats().Iterations < 2 {
		t.Errorf("iterations = %d, want >= 2 (co-runner looping)", c.Stats().Iterations)
	}
}

func TestDoubleBufferingOverlapsLoadAndCompute(t *testing.T) {
	// With overlap, loads for tile i+1 are issued while tile i
	// computes; disabling it must strictly serialize and take longer.
	runWith := func(noOverlap bool) int64 {
		s := &recordingSubmitter{delay: 20}
		arch := TinyCore()
		arch.NoDoubleBuffer = noOverlap
		sched := buildSchedule(t, arch, multiTileNet())
		dom := clock.NewDomain(arch.FreqHz, clock.GHz)
		c := mustCore(t, arch, sched, dom, s)
		runCore(t, c, s, 10_000_000)
		return c.Stats().FirstIterCycles
	}
	overlapped := runWith(false)
	serialized := runWith(true)
	if overlapped >= serialized {
		t.Errorf("double buffering did not help: overlapped=%d serialized=%d", overlapped, serialized)
	}
}

func TestCoreRespectsSubmitBackpressure(t *testing.T) {
	s := &recordingSubmitter{delay: 1, refuse: true}
	c, _ := newTestCore(t, s)
	for now := clock.Global(0); now < 1000; now++ {
		s.tick(now)
		c.Tick(now)
	}
	if len(s.issues) != 0 {
		t.Fatal("requests issued despite refusal")
	}
	if c.FinishedFirstIteration() {
		t.Fatal("finished without memory")
	}
	// Un-refuse: execution proceeds, and no request was lost.
	s.refuse = false
	for now := clock.Global(1000); now < 2_000_000 && !c.FinishedFirstIteration(); now++ {
		s.tick(now)
		c.Tick(now)
	}
	if !c.FinishedFirstIteration() {
		t.Fatalf("core wedged after backpressure: %s", c.DebugState())
	}
}

func TestCoreDMAIssueRateBounded(t *testing.T) {
	s := &recordingSubmitter{delay: 3}
	c, arch := newTestCore(t, s)
	runCore(t, c, s, 1_000_000)
	perCycle := map[clock.Global]int{}
	for _, is := range s.issues {
		perCycle[is.at]++
	}
	for cyc, n := range perCycle {
		if n > arch.DMAIssuePerCycle {
			t.Fatalf("cycle %d issued %d requests, cap %d", cyc, n, arch.DMAIssuePerCycle)
		}
	}
}

func TestCoreNextEventAfterComputePhase(t *testing.T) {
	s := &recordingSubmitter{delay: 1}
	c, _ := newTestCore(t, s)
	// Drive until the core is computing with nothing to issue.
	for now := clock.Global(0); now < 100000; now++ {
		s.tick(now)
		c.Tick(now)
		if !c.HasIssuableWork() && len(s.pending) == 0 && !c.FinishedFirstIteration() {
			e := c.NextEventAfter(now)
			if e <= now {
				t.Fatalf("NextEventAfter(%d) = %d", now, e)
			}
			return
		}
	}
	t.Skip("no pure-compute window observed")
}

func TestNewCoreRejectsEmptySchedule(t *testing.T) {
	arch := TinyCore()
	dom := clock.NewDomain(arch.FreqHz, clock.GHz)
	if _, err := NewCore(0, arch, &tile.Schedule{}, dom, &recordingSubmitter{}); err == nil {
		t.Error("empty schedule accepted")
	}
}

func TestSlowCoreClockStretchesLatency(t *testing.T) {
	// The same schedule on a half-speed core takes about twice as many
	// global cycles when compute-bound.
	run := func(freq clock.Hz) clock.Global {
		s := &recordingSubmitter{delay: 1}
		arch := TinyCore()
		arch.FreqHz = freq
		sched := buildSchedule(t, arch, multiTileNet())
		c := mustCore(t, arch, sched, clock.NewDomain(freq, clock.GHz), s)
		for now := clock.Global(0); now < 10_000_000; now++ {
			s.tick(now)
			c.Tick(now)
			if c.FinishedFirstIteration() {
				return now
			}
		}
		t.Fatal("did not finish")
		return 0
	}
	full := run(clock.GHz)
	half := run(clock.GHz / 2)
	if half < full*3/2 {
		t.Errorf("half-speed core not slower: full=%d half=%d", full, half)
	}
}
