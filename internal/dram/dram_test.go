package dram

import (
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/mem"
)

// testMemory wraps a Memory with helpers for driving it cycle by cycle.
type testMemory struct {
	t   *testing.T
	m   *Memory
	now clock.Global
	// doneAt maps a request to where its completion hook records the
	// completion cycle.
	doneAt map[*mem.Request]*clock.Global
}

func newTestMemory(t *testing.T, cfg Config) *testMemory {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm := &testMemory{t: t, m: m, doneAt: map[*mem.Request]*clock.Global{}}
	m.OnComplete = func(now clock.Global, r *mem.Request) {
		if at := tm.doneAt[r]; at != nil {
			*at = now
		}
	}
	return tm
}

// request builds a block request whose completion, if doneAt is
// non-nil, records its cycle there.
func (tm *testMemory) request(core int, addr uint64, kind mem.Kind, doneAt *clock.Global) *mem.Request {
	r := &mem.Request{Core: core, Addr: addr, Size: 64, Kind: kind}
	if doneAt != nil {
		tm.doneAt[r] = doneAt
	}
	return r
}

// tickAll ticks every channel of m at now, as the event kernel does on
// a cycle at which every channel is due.
func tickAll(m *Memory, now clock.Global) {
	for ch := range m.Channels() {
		m.TickChannel(ch, now)
	}
}

// busy reports whether any channel of m holds a queued request or a
// burst still in flight.
func busy(m *Memory) bool {
	for _, c := range m.channels {
		if len(c.queue) > 0 || len(c.completions) > 0 {
			return true
		}
	}
	return false
}

// tick advances the memory by one cycle.
func (tm *testMemory) tick() {
	tickAll(tm.m, tm.now)
	tm.now++
}

// tickUntilIdle advances the memory until no work remains, returning
// the cycle it went idle. It fails the test after limit cycles.
func (tm *testMemory) tickUntilIdle(limit clock.Global) clock.Global {
	for i := clock.Global(0); i < limit; i++ {
		tm.tick()
		if !busy(tm.m) {
			return tm.now
		}
	}
	tm.t.Fatalf("memory still busy after %d cycles", limit)
	return 0
}

func TestSingleReadLatency(t *testing.T) {
	cfg := HBM2(1)
	tm := newTestMemory(t, cfg)
	var doneAt clock.Global = -1
	if !tm.m.Enqueue(0, tm.request(0, 0, mem.Read, &doneAt)) {
		t.Fatal("enqueue refused")
	}
	tm.tickUntilIdle(1000)
	// Cold read: activate (tRCD) + read (tCL) + burst (BL2).
	tmg := cfg.Timing
	wantMin := clock.Global(tmg.RCD + tmg.CL + tmg.BL2)
	if doneAt < wantMin || doneAt > wantMin+4 {
		t.Errorf("read completed at %d, want about %d", doneAt, wantMin)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cfg := HBM2(1)
	// Same row twice, then a different row in the same bank.
	tm := newTestMemory(t, cfg)
	var t1, t2 clock.Global
	tm.m.Enqueue(0, tm.request(0, 0, mem.Read, &t1))
	tm.m.Enqueue(0, tm.request(0, 64, mem.Read, &t2))
	tm.tickUntilIdle(1000)
	hitGap := t2 - t1

	tm2 := newTestMemory(t, cfg)
	// Conflict: same bank, different row. With col-major mapping, rows
	// of the same bank are RowBytes*BankGroups*Banks apart... simply
	// use two addresses that decode to the same bank, different row.
	m := NewMapper(cfg, []int{0})
	base := uint64(0)
	var conflictAddr uint64
	l0 := m.Locate(base)
	for a := uint64(cfg.RowBytes); ; a += uint64(cfg.RowBytes) {
		l := m.Locate(a)
		if cfg.BankIndex(l) == cfg.BankIndex(l0) && l.Row != l0.Row {
			conflictAddr = a
			break
		}
	}
	var c1, c2 clock.Global
	tm2.m.Enqueue(0, tm2.request(0, base, mem.Read, &c1))
	tm2.m.Enqueue(0, tm2.request(0, conflictAddr, mem.Read, &c2))
	tm2.tickUntilIdle(1000)
	conflictGap := c2 - c1

	if hitGap >= conflictGap {
		t.Errorf("row hit gap %d should be smaller than conflict gap %d", hitGap, conflictGap)
	}
	st := tm.m.Stats().Totals()
	if st.RowHits != 2 { // first access opens the row and counts as a hit-issue
		t.Logf("note: row hits=%d misses=%d", st.RowHits, st.RowMisses)
	}
}

func TestWriteCompletes(t *testing.T) {
	tm := newTestMemory(t, HBM2(1))
	var doneAt clock.Global = -1
	tm.m.Enqueue(0, tm.request(0, 128, mem.Write, &doneAt))
	tm.tickUntilIdle(1000)
	if doneAt < 0 {
		t.Fatal("write never completed")
	}
	st := tm.m.Stats().Totals()
	if st.Writes != 1 || st.Reads != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestQueueFullRejects(t *testing.T) {
	cfg := HBM2(1)
	cfg.QueueDepth = 4
	tm := newTestMemory(t, cfg)
	accepted := 0
	for i := 0; i < 10; i++ {
		if tm.m.Enqueue(0, tm.request(0, uint64(i*64), mem.Read, nil)) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Errorf("accepted %d, want 4", accepted)
	}
	if tm.m.Stats().Totals().QueueFullRejects != 6 {
		t.Errorf("rejects = %d, want 6", tm.m.Stats().Totals().QueueFullRejects)
	}
	if tm.m.HasSpace(0) {
		t.Error("HasSpace should be false when full")
	}
	// Draining frees the full queue's first slot once; no later slot
	// frees a full queue.
	freed := 0
	tm.m.OnSlotFreed = func(now clock.Global, ch int) { freed++ }
	tm.tickUntilIdle(2000)
	if !tm.m.HasSpace(0) {
		t.Error("HasSpace should be true after drain")
	}
	if freed != 1 {
		t.Errorf("OnSlotFreed fired %d times, want 1", freed)
	}
}

func TestStreamAchievesNearPeakBandwidth(t *testing.T) {
	cfg := HBM2(1)
	tm := newTestMemory(t, cfg)
	const n = 512
	completed := 0
	issued := 0
	var lastDone clock.Global
	tm.m.OnComplete = func(now clock.Global, _ *mem.Request) { completed++; lastDone = now }
	for tm.now < 100000 && completed < n {
		for issued < n && tm.m.Enqueue(tm.now, tm.request(0, uint64(issued*64), mem.Read, nil)) {
			issued++
		}
		tm.tick()
	}
	if completed != n {
		t.Fatalf("completed %d of %d", completed, n)
	}
	// Peak moves one block per BL2 cycles; allow 25% overhead for
	// activates, refresh, and ramp-up.
	ideal := clock.Global(n * cfg.Timing.BL2)
	if lastDone > ideal*5/4 {
		t.Errorf("stream took %d cycles, peak would be %d (efficiency %.0f%%)",
			lastDone, ideal, 100*float64(ideal)/float64(lastDone))
	}
}

func TestChannelPartitionIsolation(t *testing.T) {
	// Core 0 on channel 0 and core 1 on channel 1 must not interact:
	// core 0's stream finishes in the same time with or without core 1.
	run := func(withCo bool) clock.Global {
		cfg := HBM2(2)
		tm := newTestMemory(t, cfg)
		if err := tm.m.SetCoreChannels(0, []int{0}); err != nil {
			t.Fatal(err)
		}
		if err := tm.m.SetCoreChannels(1, []int{1}); err != nil {
			t.Fatal(err)
		}
		const n = 200
		var last0 clock.Global
		done0 := 0
		issued0, issued1 := 0, 0
		tm.m.OnComplete = core0Done(&done0, &last0)
		for tm.now < 100000 && done0 < n {
			for issued0 < n && tm.m.Enqueue(tm.now, tm.request(0, uint64(issued0*64), mem.Read, nil)) {
				issued0++
			}
			if withCo {
				for issued1 < 10*n && tm.m.Enqueue(tm.now, tm.request(1, uint64(issued1*64), mem.Read, nil)) {
					issued1++
				}
			}
			tm.tick()
		}
		if done0 != n {
			t.Fatalf("core 0 completed %d of %d", done0, n)
		}
		return last0
	}
	alone := run(false)
	shared := run(true)
	if shared != alone {
		t.Errorf("partitioned co-runner changed core 0 latency: %d vs %d", shared, alone)
	}
}

// core0Done returns a completion hook that counts core 0's completions
// and records the last one's cycle.
func core0Done(n *int, last *clock.Global) func(clock.Global, *mem.Request) {
	return func(now clock.Global, r *mem.Request) {
		if r.Core == 0 {
			*n++
			*last = now
		}
	}
}

func TestSharedChannelContention(t *testing.T) {
	// Two cores on the same channel must slow each other down.
	run := func(withCo bool) clock.Global {
		cfg := HBM2(1)
		tm := newTestMemory(t, cfg)
		const n = 200
		var last0 clock.Global
		done0 := 0
		issued0, issued1 := 0, 0
		tm.m.OnComplete = core0Done(&done0, &last0)
		for tm.now < 200000 && done0 < n {
			// Co-runner gets first crack at queue space so the
			// interference is steady.
			if withCo && issued1 < 4*n {
				if tm.m.Enqueue(tm.now, tm.request(1, uint64(1<<20+issued1*64), mem.Read, nil)) {
					issued1++
				}
			}
			if issued0 < n && tm.m.Enqueue(tm.now, tm.request(0, uint64(issued0*64), mem.Read, nil)) {
				issued0++
			}
			tm.tick()
		}
		if done0 != n {
			t.Fatalf("core 0 completed %d of %d", done0, n)
		}
		return last0
	}
	if alone, shared := run(false), run(true); shared <= alone {
		t.Errorf("shared-channel co-runner did not slow core 0: %d vs %d", shared, alone)
	}
}

func TestRefreshHappens(t *testing.T) {
	cfg := HBM2(1)
	tm := newTestMemory(t, cfg)
	// Keep a trickle of traffic so the controller keeps ticking past
	// several tREFI windows.
	issued := 0
	for tm.now < clock.Global(cfg.Timing.REFI*3+1000) {
		if tm.now%97 == 0 {
			if tm.m.Enqueue(tm.now, tm.request(0, uint64(issued*64), mem.Read, nil)) {
				issued++
			}
		}
		tm.tick()
	}
	st := tm.m.Stats().Totals()
	if st.Refreshes < 3 {
		t.Errorf("refreshes = %d, want >= 3 over 3 tREFI", st.Refreshes)
	}
}

func TestRefreshNotStarvedBySaturatingStream(t *testing.T) {
	// A due refresh must win against a saturating row-hit stream. The
	// controller holds new commands to a rank whose refresh is due so
	// the precharge-all sequence converges; without that hold each CAS
	// pushes the bank's precharge window forward and the refresh slips
	// past a full tREFI (the invariant build panics with "refresh
	// overdue by a full interval").
	cfg := HBM2(1)
	tm := newTestMemory(t, cfg)
	horizon := clock.Global(cfg.Timing.REFI) * 4
	issued := 0
	for tm.now < horizon {
		for tm.m.Enqueue(tm.now, tm.request(0, uint64(issued*64), mem.Read, nil)) {
			issued++
		}
		tm.tick()
	}
	st := tm.m.Stats().Totals()
	if st.Refreshes < 3 {
		t.Errorf("refreshes = %d over %d cycles (tREFI=%d), want >= 3",
			st.Refreshes, horizon, cfg.Timing.REFI)
	}
}

func TestSkipWindowBoundedByRefresh(t *testing.T) {
	cfg := HBM2(1)
	tm := newTestMemory(t, cfg)
	refi := clock.Global(cfg.Timing.REFI)
	// An idle channel sleeps until its refresh deadline and no further:
	// refreshes happen by ticking at that deadline, never by crediting a
	// skipped window, so sleeping and ticked executions stay identical.
	tm.m.TickChannel(0, 0)
	if e := tm.m.ChannelNextEventAfter(0, 0); e != refi {
		t.Fatalf("idle channel wakes at %d, want its refresh deadline %d", e, refi)
	}
	if got := tm.m.Stats().Totals().Refreshes; got != 0 {
		t.Errorf("refreshes before the deadline = %d, want 0", got)
	}
	for now := refi; now < refi+10; now++ {
		tm.m.TickChannel(0, now)
	}
	if got := tm.m.Stats().Totals().Refreshes; got != 1 {
		t.Errorf("refreshes after ticking past the deadline = %d, want 1", got)
	}
}

func TestNextEventAfter(t *testing.T) {
	cfg := HBM2(2)
	tm := newTestMemory(t, cfg)
	if err := tm.m.SetCoreChannels(0, []int{1}); err != nil {
		t.Fatal(err)
	}
	// An idle channel's next event is its first refresh deadline: a
	// sleep must never jump a refresh.
	for ch := range cfg.Channels {
		if e := tm.m.ChannelNextEventAfter(ch, 0); e != clock.Global(cfg.Timing.REFI) {
			t.Errorf("idle channel %d next event = %d, want refresh deadline %d", ch, e, cfg.Timing.REFI)
		}
	}
	// Queued work needs its channel ticked next cycle; the other
	// channel still sleeps until its refresh.
	tm.m.Enqueue(0, tm.request(0, 0, mem.Read, nil))
	if e := tm.m.ChannelNextEventAfter(1, 0); e != 1 {
		t.Errorf("queued work should need ticking next cycle, got %d", e)
	}
	if e := tm.m.ChannelNextEventAfter(0, 0); e != clock.Global(cfg.Timing.REFI) {
		t.Errorf("channel without work next event = %d, want refresh deadline %d", e, cfg.Timing.REFI)
	}
}

func TestConflictingRequestIsNotStarved(t *testing.T) {
	// A request conflicting with saturating row-hit streams must still
	// complete promptly: idle command slots (bus-limited off-cycles)
	// prepare the oldest request's bank, and the starvation cap bounds
	// the worst case. This holds with and without the cap enabled.
	latency := func(cap int) clock.Global {
		cfg := HBM2(1)
		cfg.StarvationCap = cap
		cfg.QueueDepth = 64
		tm := newTestMemory(t, cfg)
		m := NewMapper(cfg, []int{0})
		l0 := m.Locate(0)
		var victim uint64
		for a := uint64(cfg.RowBytes); ; a += uint64(cfg.RowBytes) {
			if l := m.Locate(a); cfg.BankIndex(l) == cfg.BankIndex(l0) && l.Row != l0.Row {
				victim = a
				break
			}
		}
		var victimDone clock.Global = -1
		// Two phase-shifted streams in different banks guarantee a
		// row-hit CAS is available every cycle, even when one stream
		// crosses a row boundary — the scenario where pure FR-FCFS
		// starves the conflicting victim indefinitely.
		issuedA, issuedB := 0, 0
		baseB := uint64(16 << 20)
		for i := 0; i < 4; i++ {
			tm.m.Enqueue(0, tm.request(0, uint64(issuedA*64), mem.Read, nil))
			issuedA++
			tm.m.Enqueue(0, tm.request(0, baseB+uint64((issuedB+8)*64), mem.Read, nil))
			issuedB++
		}
		tm.m.Enqueue(0, tm.request(0, victim, mem.Read, &victimDone))
		for tm.now < 50000 && victimDone < 0 {
			for k := 0; k < 2 && issuedA < 4000; k++ {
				if tm.m.Enqueue(tm.now, tm.request(0, uint64(issuedA*64), mem.Read, nil)) {
					issuedA++
				}
				if tm.m.Enqueue(tm.now, tm.request(0, baseB+uint64((issuedB+8)*64), mem.Read, nil)) {
					issuedB++
				}
			}
			tm.tick()
		}
		if victimDone < 0 {
			t.Fatalf("victim starved forever with cap=%d", cap)
		}
		return victimDone
	}
	// Bound: a few row-conflict round trips, not the length of the
	// 4000-request stream (which would be ~8000 cycles).
	const bound = 600
	if capped := latency(8); capped > bound {
		t.Errorf("victim took %d cycles with cap=8, want <= %d", capped, bound)
	}
	if uncapped := latency(0); uncapped > bound {
		t.Errorf("victim took %d cycles with cap disabled, want <= %d", uncapped, bound)
	}
}

func TestPTPriorityShortensWalkReadLatency(t *testing.T) {
	latency := func(ptPriority bool) clock.Global {
		cfg := HBM2(1)
		cfg.PTPriority = ptPriority
		tm := newTestMemory(t, cfg)
		var ptDone clock.Global = -1
		issued := 0
		// Fill the queue with data, then a PT read behind it.
		for i := 0; i < 16; i++ {
			if tm.m.Enqueue(0, tm.request(0, uint64(issued*64), mem.Read, nil)) {
				issued++
			}
		}
		pt := tm.request(0, 1<<21, mem.Read, &ptDone)
		pt.Class = mem.PageTable
		for !tm.m.Enqueue(tm.now, pt) {
			tm.tick()
		}
		for tm.now < 50000 && ptDone < 0 {
			if issued < 256 {
				if tm.m.Enqueue(tm.now, tm.request(0, uint64(issued*64), mem.Read, nil)) {
					issued++
				}
			}
			tm.tick()
		}
		if ptDone < 0 {
			t.Fatal("PT read never completed")
		}
		return ptDone
	}
	with := latency(true)
	without := latency(false)
	if with >= without {
		t.Errorf("PT priority did not reduce walk-read latency: with=%d without=%d", with, without)
	}
}

func TestFCFSPreservesArrivalOrder(t *testing.T) {
	cfg := HBM2(1)
	cfg.Policy = FCFS
	tm := newTestMemory(t, cfg)
	var order []uint64
	tm.m.OnComplete = func(_ clock.Global, r *mem.Request) { order = append(order, r.VAddr) }
	for i := 0; i < 8; i++ {
		// Alternate rows to create conflicts FR-FCFS would reorder.
		addr := uint64(i%2) * uint64(cfg.RowBytes) * 16
		r := tm.request(0, addr+uint64(i*64), mem.Read, nil)
		r.VAddr = uint64(i) // DRAM never reads VAddr: a tag
		tm.m.Enqueue(0, r)
	}
	tm.tickUntilIdle(10000)
	for i, id := range order {
		if id != uint64(i) {
			t.Fatalf("FCFS completion order %v", order)
		}
	}
}

func TestMovedByCountsBytesPerCoreAndClass(t *testing.T) {
	tm := newTestMemory(t, HBM2(1))
	tm.m.Enqueue(0, tm.request(3, 0, mem.Read, nil))
	tm.m.Enqueue(0, tm.request(3, 64, mem.Write, nil))
	pt := tm.request(3, 128, mem.Read, nil)
	pt.Class, pt.Size = mem.PageTable, 8
	tm.m.Enqueue(0, pt)
	tm.m.Enqueue(0, tm.request(1, 192, mem.Read, nil))
	tm.tickUntilIdle(1000)
	if got, want := tm.m.MovedBy(3), (CoreBytes{Data: 128, PageTable: 8}); got != want {
		t.Errorf("core 3 moved %+v, want %+v", got, want)
	}
	if got, want := tm.m.MovedBy(1), (CoreBytes{Data: 64}); got != want {
		t.Errorf("core 1 moved %+v, want %+v", got, want)
	}
	for _, core := range []int{-1, 0, 2, 4} {
		if got := tm.m.MovedBy(core); got != (CoreBytes{}) {
			t.Errorf("core %d moved %+v, want nothing", core, got)
		}
	}
}

func TestStatsBytesMoved(t *testing.T) {
	tm := newTestMemory(t, HBM2(2))
	if err := tm.m.SetCoreChannels(0, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tm.m.Enqueue(0, tm.request(0, uint64(i*64), mem.Read, nil))
	}
	tm.tickUntilIdle(10000)
	st := tm.m.Stats()
	if got := st.Totals().BytesMoved; got != 20*64 {
		t.Errorf("bytes moved = %d, want %d", got, 20*64)
	}
	if st.RowHitRate() <= 0.5 {
		t.Errorf("stream row hit rate = %.2f, want > 0.5", st.RowHitRate())
	}
}

// mustNew is New for configurations a test knows valid.
func mustNew(cfg Config) *Memory {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted the zero Config")
	}
}

func TestStringDescribesDevice(t *testing.T) {
	m := mustNew(HBM2(8))
	if s := m.String(); s == "" {
		t.Error("empty String()")
	}
}
