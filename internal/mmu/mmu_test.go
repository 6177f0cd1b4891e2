package mmu

import (
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/mem"
)

// completer delivers a fake backend's completions as the simulator's
// completion hook does: page-table reads to the MMU that issued them
// (newTestMMU wires it), data requests to onData.
type completer struct {
	mmu    *MMU
	onData func(now clock.Global, r *mem.Request)
}

func (c *completer) wire(m *MMU) { c.mmu = m }

func (c *completer) complete(now clock.Global, r *mem.Request) {
	if r.Class == mem.PageTable {
		c.mmu.ReadDone(r)
	} else if c.onData != nil {
		c.onData(now, r)
	}
}

// fakeBackend completes every request after a fixed delay, optionally
// refusing admission to exercise backpressure.
type fakeBackend struct {
	completer
	delay   clock.Global
	pending []struct {
		at clock.Global
		r  *mem.Request
	}
	accepted []*mem.Request
	refuse   bool
}

func (f *fakeBackend) Channels() int             { return 1 }
func (f *fakeBackend) Route(*mem.Request) int    { return 0 }
func (f *fakeBackend) HasSpace(int) bool         { return !f.refuse }
func (f *fakeBackend) ChargeRefusals(int, int64) {}

func (f *fakeBackend) Enqueue(now clock.Global, r *mem.Request) bool {
	if f.refuse {
		return false
	}
	f.accepted = append(f.accepted, r)
	f.pending = append(f.pending, struct {
		at clock.Global
		r  *mem.Request
	}{now + f.delay, r})
	return true
}

func (f *fakeBackend) tick(now clock.Global) {
	out := f.pending[:0]
	for _, p := range f.pending {
		if p.at <= now {
			f.complete(now, p.r)
		} else {
			out = append(out, p)
		}
	}
	f.pending = out
}

func testMMUConfig(cores int) Config {
	return Config{
		Cores:               cores,
		PageSize:            Page4K,
		TLBEntriesPerCore:   16,
		TLBAssoc:            4,
		WalkersPerCore:      2,
		SharedPTW:           false,
		WalkLatencyPerLevel: 10,
		TLBPortsPerCycle:    4,
		MaxPendingWalks:     8,
	}
}

func newTestMMU(t testing.TB, cfg Config, backend Backend) *MMU {
	t.Helper()
	tables := make([]*PageTable, cfg.Cores)
	for i := range tables {
		tables[i] = NewPageTable(cfg.PageSize, 0, NewPhysAllocator(uint64(i)<<32, 1<<30, cfg.PageSize))
	}
	m, err := New(cfg, backend, tables)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := backend.(interface{ wire(*MMU) }); ok {
		b.wire(m)
	}
	return m
}

func dataReq(core int, va uint64) *mem.Request {
	return &mem.Request{Core: core, VAddr: va, Size: 64, Kind: mem.Read, Class: mem.Data}
}

// doneAt returns a data-completion hook that records the cycle in at.
func doneAt(at *clock.Global) func(clock.Global, *mem.Request) {
	return func(now clock.Global, _ *mem.Request) { *at = now }
}

// count returns a data-completion hook that counts completions in n.
func count(n *int) func(clock.Global, *mem.Request) {
	return func(clock.Global, *mem.Request) { *n++ }
}

// busy reports whether m holds any pending work: a queued or active
// walk, or a translated request awaiting admission.
func busy(m *MMU) bool {
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

// runMMU drives the MMU and backend until the predicate holds.
func runMMU(t *testing.T, m *MMU, b *fakeBackend, limit clock.Global, until func() bool) clock.Global {
	t.Helper()
	for now := clock.Global(0); now < limit; now++ {
		b.tick(now)
		m.Tick(now)
		if until() {
			return now
		}
	}
	t.Fatalf("condition not reached in %d cycles", limit)
	return 0
}

func TestConfigValidateRejections(t *testing.T) {
	base := testMMUConfig(2)
	mutations := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.PageSize = 3000 },
		func(c *Config) { c.TLBEntriesPerCore = 0 },
		func(c *Config) { c.TLBEntriesPerCore = 10; c.TLBAssoc = 4 },
		func(c *Config) { c.WalkersPerCore = 0 },
		func(c *Config) { c.TLBPortsPerCycle = 0 },
		func(c *Config) { c.MaxPendingWalks = 0 },
		func(c *Config) { c.WalkLatencyPerLevel = -1 },
		func(c *Config) { c.WalkerMin = []int{1} },
		func(c *Config) { c.WalkerMax = []int{1, 2, 3} },
		func(c *Config) { c.WalkLevels = 9 },
	}
	for i, mut := range mutations {
		cfg := base
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("base config invalid: %v", err)
	}
}

func TestDisabledConfigSkipsMMUChecks(t *testing.T) {
	cfg := Config{Cores: 1, PageSize: Page4K, Disabled: true}
	if err := cfg.Validate(); err != nil {
		t.Errorf("disabled config should validate: %v", err)
	}
}

func TestEffectiveWalkerBounds(t *testing.T) {
	cfg := testMMUConfig(2)
	min, max := cfg.EffectiveWalkerBounds()
	if min[0] != 2 || max[0] != 2 {
		t.Errorf("static bounds: min=%v max=%v", min, max)
	}
	cfg.SharedPTW = true
	min, max = cfg.EffectiveWalkerBounds()
	if min[0] != 0 || max[0] != 4 {
		t.Errorf("dynamic bounds: min=%v max=%v", min, max)
	}
	cfg.WalkerMin = []int{1, 0}
	cfg.WalkerMax = []int{3, 4}
	min, max = cfg.EffectiveWalkerBounds()
	if min[0] != 1 || max[0] != 3 {
		t.Errorf("explicit bounds: min=%v max=%v", min, max)
	}
}

func TestMissWalksThenHits(t *testing.T) {
	b := &fakeBackend{delay: 5}
	m := newTestMMU(t, testMMUConfig(1), b)
	var done clock.Global = -1
	b.onData = doneAt(&done)
	if m.Submit(0, dataReq(0, 0x1000)) != mem.Admitted {
		t.Fatal("submit refused")
	}
	end := runMMU(t, m, b, 10000, func() bool { return done >= 0 })
	// Fixed-latency walk: 4 levels x 10 cycles, then issue + backend
	// delay.
	if end < 40 {
		t.Errorf("miss completed at %d, expected >= 40 (walk latency)", end)
	}
	st := m.Stats(0)
	if st.Walks != 1 || st.TLBMisses != 1 || st.TLBHits != 0 {
		t.Errorf("stats after miss: %+v", st)
	}
	if st.AvgWalkCycles() < 40 {
		t.Errorf("avg walk = %.0f, want >= 40", st.AvgWalkCycles())
	}

	// Second access to the same page: TLB hit, no new walk.
	done = -1
	if m.Submit(end+1, dataReq(0, 0x1040)) != mem.Admitted {
		t.Fatal("second submit refused")
	}
	runMMU(t, m, b, 10000, func() bool { return done >= 0 })
	st = m.Stats(0)
	if st.Walks != 1 || st.TLBHits != 1 {
		t.Errorf("stats after hit: %+v", st)
	}
}

func TestCoalescedMissesShareOneWalk(t *testing.T) {
	b := &fakeBackend{delay: 3}
	m := newTestMMU(t, testMMUConfig(1), b)
	completed := 0
	b.onData = count(&completed)
	for i := 0; i < 4; i++ {
		if m.Submit(0, dataReq(0, uint64(0x2000+i*64))) != mem.Admitted {
			t.Fatalf("submit %d refused", i)
		}
	}
	runMMU(t, m, b, 10000, func() bool { return completed == 4 })
	st := m.Stats(0)
	if st.Walks != 1 {
		t.Errorf("walks = %d, want 1 (coalesced)", st.Walks)
	}
	if st.CoalescedMisses != 3 {
		t.Errorf("coalesced = %d, want 3", st.CoalescedMisses)
	}
}

func TestTLBPortLimitPerCycle(t *testing.T) {
	cfg := testMMUConfig(1)
	cfg.TLBPortsPerCycle = 2
	b := &fakeBackend{delay: 1}
	m := newTestMMU(t, cfg, b)
	accepted := 0
	for i := 0; i < 5; i++ {
		switch a := m.Submit(7, dataReq(0, uint64(i)<<12)); a {
		case mem.Admitted:
			accepted++
		case mem.PortsBusy:
		default:
			t.Errorf("submit %d refused with %v, want PortsBusy", i, a)
		}
	}
	if accepted != 2 {
		t.Errorf("accepted %d in one cycle, want 2", accepted)
	}
	if m.Stats(0).PortStalls != 3 {
		t.Errorf("port stalls = %d, want 3", m.Stats(0).PortStalls)
	}
	// Next cycle: ports refill.
	if m.Submit(8, dataReq(0, 0x9000)) != mem.Admitted {
		t.Error("ports did not refill on the next cycle")
	}
}

func TestMSHRLimitStallsNewPages(t *testing.T) {
	cfg := testMMUConfig(1)
	cfg.MaxPendingWalks = 2
	cfg.TLBPortsPerCycle = 16
	b := &fakeBackend{delay: 1}
	m := newTestMMU(t, cfg, b)
	ok1 := m.Submit(0, dataReq(0, 0x10000)) == mem.Admitted
	ok2 := m.Submit(0, dataReq(0, 0x20000)) == mem.Admitted
	got3 := m.Submit(0, dataReq(0, 0x30000))
	if !ok1 || !ok2 || got3 != mem.MSHRFull {
		t.Errorf("mshr limit: %v %v %v, want true true MSHRFull", ok1, ok2, got3)
	}
	if !m.MSHRFull(0) {
		t.Error("MSHRFull(0) = false with both walks pending")
	}
	if m.Stats(0).MSHRStalls != 1 {
		t.Errorf("mshr stalls = %d", m.Stats(0).MSHRStalls)
	}
	// Coalescing to an already-pending page is still allowed.
	if m.Submit(0, dataReq(0, 0x10040)) != mem.Admitted {
		t.Error("coalesced submit should bypass the MSHR limit")
	}
	if m.PendingWalks(0) != 2 {
		t.Errorf("pending walks = %d, want 2", m.PendingWalks(0))
	}
}

// TestMSHRFreedHookAndCharge pins the MMU's side of a core sleeping on
// a full MSHR: OnMSHRFreed fires exactly when a walk completion takes
// a core's MSHR from full to not full, for that core only, and
// ChargeMSHRStalls counts refusals and misses of the TLB serving the
// core (the shared one, here) without counting CoreStats.TLBMisses,
// which a refusal never counts.
func TestMSHRFreedHookAndCharge(t *testing.T) {
	cfg := testMMUConfig(2)
	cfg.MaxPendingWalks = 2
	cfg.TLBPortsPerCycle = 16
	cfg.SharedTLB = true
	b := &fakeBackend{delay: 1}
	m := newTestMMU(t, cfg, b)
	var freed []int
	m.OnMSHRFreed = func(_ clock.Global, core int) { freed = append(freed, core) }

	// Core 0 fills its MSHR and is refused a third page; core 1 holds
	// one walk, below its limit.
	m.Submit(0, dataReq(0, 0x10000))
	m.Submit(0, dataReq(0, 0x20000))
	m.Submit(0, dataReq(1, 0x30000))
	if got := m.Submit(0, dataReq(0, 0x40000)); got != mem.MSHRFull {
		t.Fatalf("third page of core 0: %v, want MSHRFull", got)
	}
	if !m.MSHRFull(0) || m.MSHRFull(1) {
		t.Fatalf("MSHRFull = %v, %v; want true, false", m.MSHRFull(0), m.MSHRFull(1))
	}
	missesBefore := m.TLBFor(0).misses
	statsBefore := m.Stats(0)
	m.ChargeMSHRStalls(0, 5)
	if got := m.Stats(0).MSHRStalls - statsBefore.MSHRStalls; got != 5 {
		t.Errorf("charged MSHRStalls = %d, want 5", got)
	}
	if got := m.TLBFor(0).misses - missesBefore; got != 5 {
		t.Errorf("charged TLB misses = %d, want 5", got)
	}
	if m.Stats(0).TLBMisses != statsBefore.TLBMisses {
		t.Errorf("charging changed CoreStats.TLBMisses: %d, was %d", m.Stats(0).TLBMisses, statsBefore.TLBMisses)
	}

	runMMU(t, m, b, 10000, func() bool { return m.PendingWalks(0) == 0 && m.PendingWalks(1) == 0 })
	// Core 0's first completion frees its full MSHR; its second finds
	// it already not full, and core 1's never was.
	if len(freed) != 1 || freed[0] != 0 {
		t.Errorf("OnMSHRFreed calls = %v, want [0]", freed)
	}
}

func TestDisabledModeForwardsImmediately(t *testing.T) {
	cfg := testMMUConfig(1)
	cfg.Disabled = true
	b := &fakeBackend{delay: 2}
	m := newTestMMU(t, cfg, b)
	var done clock.Global = -1
	b.onData = doneAt(&done)
	if m.Submit(0, dataReq(0, 0x5000)) != mem.Admitted {
		t.Fatal("submit refused")
	}
	runMMU(t, m, b, 100, func() bool { return done >= 0 })
	if len(b.accepted) != 1 || b.accepted[0].Addr == 0 && b.accepted[0].VAddr == 0 {
		t.Errorf("request not forwarded: %v", b.accepted)
	}
	if m.Stats(0).Walks != 0 {
		t.Error("disabled mode performed a walk")
	}
}

func TestWalkerBandwidthLimitsThroughput(t *testing.T) {
	// 8 distinct pages, 2 walkers, walk = 40 cycles: total walk time
	// must be about ceil(8/2)*40.
	cfg := testMMUConfig(1)
	cfg.TLBPortsPerCycle = 16
	b := &fakeBackend{delay: 1}
	m := newTestMMU(t, cfg, b)
	completed := 0
	b.onData = count(&completed)
	for i := 0; i < 8; i++ {
		if m.Submit(0, dataReq(0, uint64(0x100000+i*4096))) != mem.Admitted {
			t.Fatalf("submit %d refused", i)
		}
	}
	end := runMMU(t, m, b, 10000, func() bool { return completed == 8 })
	if end < 4*40 {
		t.Errorf("8 walks on 2 walkers finished at %d, want >= %d", end, 4*40)
	}
	if end > 4*40+40 {
		t.Errorf("walks too slow: %d", end)
	}
}

func TestDRAMBackedWalkIssuesPTEReads(t *testing.T) {
	cfg := testMMUConfig(1)
	cfg.WalkMemory = DRAMBackedWalks
	b := &fakeBackend{delay: 4}
	m := newTestMMU(t, cfg, b)
	var done clock.Global = -1
	b.onData = doneAt(&done)
	m.Submit(0, dataReq(0, 0x1000))
	runMMU(t, m, b, 10000, func() bool { return done >= 0 })
	ptReads := 0
	for _, r := range b.accepted {
		if r.Class == mem.PageTable {
			ptReads++
			if r.Kind != mem.Read || r.Size != 8 {
				t.Errorf("bad PTE read: %v", r)
			}
		}
	}
	if ptReads != 4 {
		t.Errorf("PTE reads = %d, want 4 (one per level)", ptReads)
	}
}

func TestDRAMBackedWalkLevelsAreSequential(t *testing.T) {
	cfg := testMMUConfig(1)
	cfg.WalkMemory = DRAMBackedWalks
	b := &fakeBackend{delay: 7}
	m := newTestMMU(t, cfg, b)
	var done clock.Global = -1
	b.onData = doneAt(&done)
	m.Submit(0, dataReq(0, 0x1000))
	end := runMMU(t, m, b, 10000, func() bool { return done >= 0 })
	// Four dependent reads at >= 7 cycles each.
	if end < 28 {
		t.Errorf("walk completed at %d; levels not serialized", end)
	}
}

func TestSharedTLBAcrossCores(t *testing.T) {
	cfg := testMMUConfig(2)
	cfg.SharedTLB = true
	b := &fakeBackend{delay: 1}
	m := newTestMMU(t, cfg, b)
	if m.TLBFor(0) != m.TLBFor(1) {
		t.Error("shared TLB should be one structure")
	}
	cfg.SharedTLB = false
	m2 := newTestMMU(t, cfg, b)
	if m2.TLBFor(0) == m2.TLBFor(1) {
		t.Error("private TLBs should be distinct")
	}
}

func TestBackpressurePreservesRequests(t *testing.T) {
	b := &fakeBackend{delay: 1, refuse: true}
	m := newTestMMU(t, testMMUConfig(1), b)
	var done clock.Global = -1
	b.onData = doneAt(&done)
	m.Submit(0, dataReq(0, 0x1000))
	for now := clock.Global(0); now < 300; now++ {
		b.tick(now)
		m.Tick(now)
	}
	if done >= 0 {
		t.Fatal("request completed despite refusing backend")
	}
	if !busy(m) {
		t.Fatal("MMU dropped the request under backpressure")
	}
	b.refuse = false
	runMMU(t, m, b, 10000, func() bool { return done >= 0 })
}

func TestRequestTranslationSetsPhysicalAddr(t *testing.T) {
	b := &fakeBackend{delay: 1}
	m := newTestMMU(t, testMMUConfig(1), b)
	var got *mem.Request
	b.onData = func(_ clock.Global, r *mem.Request) { got = r }
	m.Submit(0, dataReq(0, 0x1234))
	runMMU(t, m, b, 10000, func() bool { return got != nil })
	if got.Addr&0xFFF != 0x234 {
		t.Errorf("page offset not preserved: pa=%#x", got.Addr)
	}
}

func TestPerCoreStatsAreSeparate(t *testing.T) {
	b := &fakeBackend{delay: 1}
	m := newTestMMU(t, testMMUConfig(2), b)
	m.Submit(0, dataReq(0, 0x1000))
	m.Submit(0, dataReq(1, 0x1000))
	done := false
	runMMU(t, m, b, 10000, func() bool {
		done = m.Stats(0).Walks == 1 && m.Stats(1).Walks == 1
		return done
	})
	if !done {
		t.Error("per-core walk stats wrong")
	}
}

func TestDWSStealingEndToEnd(t *testing.T) {
	// One translation-hungry core and one idle core: under DWS the
	// busy core borrows the idle core's walkers and finishes faster
	// than with static home walkers only.
	run := func(policy WalkerSharePolicy) clock.Global {
		cfg := testMMUConfig(2)
		cfg.WalkerPolicy = policy
		cfg.TLBPortsPerCycle = 16
		b := &fakeBackend{delay: 1}
		m := newTestMMU(t, cfg, b)
		completed := 0
		b.onData = count(&completed)
		for i := 0; i < 8; i++ {
			if m.Submit(0, dataReq(0, uint64(0x100000+i*4096))) != mem.Admitted {
				t.Fatalf("submit %d refused", i)
			}
		}
		return runMMU(t, m, b, 100000, func() bool { return completed == 8 })
	}
	static := run(PoolBounds) // default bounds are equal-static here
	dws := run(DWSStealing)
	if dws >= static {
		t.Errorf("DWS stealing not faster for the lone busy core: dws=%d static=%d", dws, static)
	}
}

func TestDWSStealingProtectsOwnerBursts(t *testing.T) {
	// Both cores bursting: DWS must not let one core hold the other's
	// walkers while the owner has queued walks; both finish in about
	// the static-partition time.
	cfg := testMMUConfig(2)
	cfg.WalkerPolicy = DWSStealing
	cfg.TLBPortsPerCycle = 16
	b := &fakeBackend{delay: 1}
	m := newTestMMU(t, cfg, b)
	done := [2]int{}
	b.onData = func(_ clock.Global, r *mem.Request) { done[r.Core]++ }
	for core := 0; core < 2; core++ {
		for i := 0; i < 6; i++ {
			if m.Submit(0, dataReq(core, uint64(0x100000+i*4096))) != mem.Admitted {
				t.Fatalf("submit refused")
			}
		}
	}
	end := runMMU(t, m, b, 100000, func() bool { return done[0] == 6 && done[1] == 6 })
	// 6 walks on 2 home walkers at 40 cycles each = ~120 cycles; allow
	// slack for queueing but catch monopolization (which would double
	// one core's time).
	if end > 250 {
		t.Errorf("symmetric bursts took %d cycles under DWS", end)
	}
}

// slotBackend frees exactly one admission slot every `period` ticks —
// the periodic-service pattern that can parity-lock a per-cycle
// round-robin arbiter.
type slotBackend struct {
	period   clock.Global
	lastAt   clock.Global
	admitted map[int]int
}

// slotBackend frees its slot with no stimulus, so it always reports
// space: an MMU driven by it ticks (and retries) every cycle.
func (s *slotBackend) Channels() int             { return 1 }
func (s *slotBackend) Route(*mem.Request) int    { return 0 }
func (s *slotBackend) HasSpace(int) bool         { return true }
func (s *slotBackend) ChargeRefusals(int, int64) {}

func (s *slotBackend) Enqueue(now clock.Global, r *mem.Request) bool {
	if now-s.lastAt < s.period {
		return false
	}
	s.lastAt = now
	if s.admitted == nil {
		s.admitted = map[int]int{}
	}
	s.admitted[r.Core]++
	return true
}

func TestDrainIsGrantFairUnderPeriodicSlots(t *testing.T) {
	cfg := testMMUConfig(2)
	cfg.Disabled = true // direct translation: everything flows via issueQ
	b := &slotBackend{period: 2, lastAt: -10}
	m := newTestMMU(t, cfg, b)
	for i := 0; i < 200; i++ {
		m.Submit(0, dataReq(0, uint64(i*64)))
		m.Submit(0, dataReq(1, uint64(i*64)))
	}
	for now := clock.Global(0); now < 400; now++ {
		m.Tick(now)
	}
	a, c := b.admitted[0], b.admitted[1]
	if a+c == 0 {
		t.Fatal("nothing admitted")
	}
	if a < (a+c)*2/5 || c < (a+c)*2/5 {
		t.Errorf("grant shares skewed: core0=%d core1=%d", a, c)
	}
}
