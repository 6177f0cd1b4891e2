package mmu

import (
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/mem"
)

// fakeBackend completes every request after a fixed delay, optionally
// refusing admission to exercise backpressure.
type fakeBackend struct {
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
			p.r.Complete(now)
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

func newTestMMU(t *testing.T, cfg Config, backend Backend) *MMU {
	t.Helper()
	tables := make([]*PageTable, cfg.Cores)
	for i := range tables {
		tables[i] = NewPageTable(cfg.PageSize, 0, NewPhysAllocator(uint64(i)<<32, 1<<30, cfg.PageSize))
	}
	m, err := New(cfg, backend, tables, &mem.IDAllocator{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func dataReq(core int, va uint64, done *clock.Global) *mem.Request {
	return &mem.Request{
		Core: core, VAddr: va, Size: 64, Kind: mem.Read, Class: mem.Data,
		Done: func(now clock.Global, _ *mem.Request) {
			if done != nil {
				*done = now
			}
		},
	}
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
	if !m.Submit(0, dataReq(0, 0x1000, &done)) {
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
	if !m.Submit(end+1, dataReq(0, 0x1040, &done)) {
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
	count := func(clock.Global, *mem.Request) { completed++ }
	for i := 0; i < 4; i++ {
		r := &mem.Request{Core: 0, VAddr: uint64(0x2000 + i*64), Size: 64, Kind: mem.Read, Done: count}
		if !m.Submit(0, r) {
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
		if m.Submit(7, dataReq(0, uint64(i)<<12, nil)) {
			accepted++
		}
	}
	if accepted != 2 {
		t.Errorf("accepted %d in one cycle, want 2", accepted)
	}
	if m.Stats(0).PortStalls != 3 {
		t.Errorf("port stalls = %d, want 3", m.Stats(0).PortStalls)
	}
	// Next cycle: ports refill.
	if !m.Submit(8, dataReq(0, 0x9000, nil)) {
		t.Error("ports did not refill on the next cycle")
	}
}

func TestMSHRLimitStallsNewPages(t *testing.T) {
	cfg := testMMUConfig(1)
	cfg.MaxPendingWalks = 2
	cfg.TLBPortsPerCycle = 16
	b := &fakeBackend{delay: 1}
	m := newTestMMU(t, cfg, b)
	ok1 := m.Submit(0, dataReq(0, 0x10000, nil))
	ok2 := m.Submit(0, dataReq(0, 0x20000, nil))
	ok3 := m.Submit(0, dataReq(0, 0x30000, nil))
	if !ok1 || !ok2 || ok3 {
		t.Errorf("mshr limit: %v %v %v, want true true false", ok1, ok2, ok3)
	}
	if m.Stats(0).MSHRStalls != 1 {
		t.Errorf("mshr stalls = %d", m.Stats(0).MSHRStalls)
	}
	// Coalescing to an already-pending page is still allowed.
	if !m.Submit(0, dataReq(0, 0x10040, nil)) {
		t.Error("coalesced submit should bypass the MSHR limit")
	}
	if m.PendingWalks(0) != 2 {
		t.Errorf("pending walks = %d, want 2", m.PendingWalks(0))
	}
}

func TestDisabledModeForwardsImmediately(t *testing.T) {
	cfg := testMMUConfig(1)
	cfg.Disabled = true
	b := &fakeBackend{delay: 2}
	m := newTestMMU(t, cfg, b)
	var done clock.Global = -1
	if !m.Submit(0, dataReq(0, 0x5000, &done)) {
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
	for i := 0; i < 8; i++ {
		r := dataReq(0, uint64(0x100000+i*4096), nil)
		r.Done = func(clock.Global, *mem.Request) { completed++ }
		if !m.Submit(0, r) {
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
	m.Submit(0, dataReq(0, 0x1000, &done))
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
	m.Submit(0, dataReq(0, 0x1000, &done))
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
	m.Submit(0, dataReq(0, 0x1000, &done))
	for now := clock.Global(0); now < 300; now++ {
		b.tick(now)
		m.Tick(now)
	}
	if done >= 0 {
		t.Fatal("request completed despite refusing backend")
	}
	if !m.Busy() {
		t.Fatal("MMU dropped the request under backpressure")
	}
	b.refuse = false
	runMMU(t, m, b, 10000, func() bool { return done >= 0 })
}

func TestRequestTranslationSetsPhysicalAddr(t *testing.T) {
	b := &fakeBackend{delay: 1}
	m := newTestMMU(t, testMMUConfig(1), b)
	var got *mem.Request
	r := &mem.Request{Core: 0, VAddr: 0x1234, Size: 64, Kind: mem.Read,
		Done: func(_ clock.Global, rr *mem.Request) { got = rr }}
	m.Submit(0, r)
	runMMU(t, m, b, 10000, func() bool { return got != nil })
	if got.Addr&0xFFF != 0x234 {
		t.Errorf("page offset not preserved: pa=%#x", got.Addr)
	}
}

func TestPerCoreStatsAreSeparate(t *testing.T) {
	b := &fakeBackend{delay: 1}
	m := newTestMMU(t, testMMUConfig(2), b)
	m.Submit(0, dataReq(0, 0x1000, nil))
	m.Submit(0, dataReq(1, 0x1000, nil))
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
		for i := 0; i < 8; i++ {
			r := dataReq(0, uint64(0x100000+i*4096), nil)
			r.Done = func(clock.Global, *mem.Request) { completed++ }
			if !m.Submit(0, r) {
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
	for core := 0; core < 2; core++ {
		for i := 0; i < 6; i++ {
			c := core
			r := dataReq(core, uint64(0x100000+i*4096), nil)
			r.Done = func(clock.Global, *mem.Request) { done[c]++ }
			if !m.Submit(0, r) {
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
		m.Submit(0, dataReq(0, uint64(i*64), nil))
		m.Submit(0, dataReq(1, uint64(i*64), nil))
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
