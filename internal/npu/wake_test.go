package npu

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/mem"
	"mnpusim/internal/model"
	"mnpusim/internal/obs"
)

// TestCoreWakeContract is the npu half of the event kernel's wake
// contract: after Tick(now), a core's observable state must not change
// before its reported NextEventAfter(now) unless a memory completion
// lands first. Two identical cores run the same schedule against
// submitters with the same fixed completion delay — the reference ticks
// every global cycle, the other only at its armed wake cycle (re-armed
// by each completion delivery at the core's post-completion horizon,
// with SkipTo catching up skipped windows exactly as the kernel's
// coreComp does). A state change the contract
// failed to announce shifts a DMA issue or the finish cycle.
func TestCoreWakeContract(t *testing.T) {
	cases := []struct {
		name  string
		freq  clock.Hz
		delay clock.Global
	}{
		{"1to1-d10", clock.GHz, 10},
		{"1to1-d37", clock.GHz, 37},
		{"700MHz-d10", 700 * clock.MHz, 10},
		{"700MHz-d61", 700 * clock.MHz, 61},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arch := TinyCore()
			arch.FreqHz = tc.freq
			sched := buildSchedule(t, arch, multiTileNet())
			dom := clock.NewDomain(arch.FreqHz, clock.GHz)

			refSub := &recordingSubmitter{delay: tc.delay}
			ref := mustCore(t, arch, sched, dom, refSub)

			const far = clock.Global(clock.FarFuture)
			armed, last := clock.Global(0), clock.Global(-1)
			wakeSub := &recordingSubmitter{delay: tc.delay, completer: completer{arm: func(at clock.Global) {
				if at < armed {
					armed = at
				}
			}}}
			wake := mustCore(t, arch, sched, dom, wakeSub)

			const limit = 2_000_000
			refFinish, wakeFinish := clock.Global(-1), clock.Global(-1)
			for now := clock.Global(0); now < limit && (refFinish < 0 || wakeFinish < 0); now++ {
				refSub.tick(now)
				if refFinish < 0 {
					ref.Tick(now)
					if ref.FinishedFirstIteration() {
						refFinish = now
					}
				}
				// The wake submitter's completions may pull armed back to
				// the current cycle, so it ticks before the arm check.
				wakeSub.tick(now)
				if wakeFinish < 0 && armed <= now {
					if last < now-1 {
						wake.SkipTo(now)
					}
					wake.Tick(now)
					last = now
					if wake.FinishedFirstIteration() {
						wakeFinish = now
					} else {
						next := wake.NextEventAfter(now)
						if next <= now {
							t.Fatalf("cycle %d: horizon %d not in the future", now, next)
						}
						armed = min(next, far)
					}
				}
			}

			if refFinish < 0 || wakeFinish < 0 {
				t.Fatalf("no finish in %d cycles (ref=%d wake=%d)", clock.Global(limit), refFinish, wakeFinish)
			}
			if refFinish != wakeFinish {
				t.Fatalf("finish cycles diverged: ref=%d wake=%d", refFinish, wakeFinish)
			}
			if !reflect.DeepEqual(refSub.issues, wakeSub.issues) {
				t.Fatalf("DMA issue streams diverged: ref=%d issues wake=%d issues",
					len(refSub.issues), len(wakeSub.issues))
			}
			if !reflect.DeepEqual(ref.Stats(), wake.Stats()) {
				t.Errorf("stats diverged:\nref:  %+v\nwake: %+v", ref.Stats(), wake.Stats())
			}
		})
	}
}

// TestCoreWakeContractRandomizedDelay stresses the contract with a
// submitter whose per-request delay is a pure function of the issue
// order (so both twins see identical completion times) drawn from a
// seeded stream, covering reordered completions and bursty delivery.
func TestCoreWakeContractRandomizedDelay(t *testing.T) {
	for _, seed := range []int64{5, 23} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			arch := TinyCore()
			sched := buildSchedule(t, arch, multiTileNet())
			dom := clock.NewDomain(arch.FreqHz, clock.GHz)

			mkDelays := func() func() clock.Global {
				rng := rand.New(rand.NewSource(seed))
				return func() clock.Global { return 1 + clock.Global(rng.Intn(96)) }
			}
			refSub := &variableSubmitter{next: mkDelays()}
			ref := mustCore(t, arch, sched, dom, refSub)

			const far = clock.Global(clock.FarFuture)
			armed, last := clock.Global(0), clock.Global(-1)
			wakeSub := &variableSubmitter{next: mkDelays(), completer: completer{arm: func(at clock.Global) {
				if at < armed {
					armed = at
				}
			}}}
			wake := mustCore(t, arch, sched, dom, wakeSub)

			const limit = 2_000_000
			refFinish, wakeFinish := clock.Global(-1), clock.Global(-1)
			for now := clock.Global(0); now < limit && (refFinish < 0 || wakeFinish < 0); now++ {
				refSub.tick(now)
				if refFinish < 0 {
					ref.Tick(now)
					if ref.FinishedFirstIteration() {
						refFinish = now
					}
				}
				wakeSub.tick(now)
				if wakeFinish < 0 && armed <= now {
					if last < now-1 {
						wake.SkipTo(now)
					}
					wake.Tick(now)
					last = now
					if wake.FinishedFirstIteration() {
						wakeFinish = now
					} else {
						next := wake.NextEventAfter(now)
						if next <= now {
							t.Fatalf("cycle %d: horizon %d not in the future", now, next)
						}
						armed = min(next, far)
					}
				}
			}

			if refFinish != wakeFinish || refFinish < 0 {
				t.Fatalf("finish cycles diverged: ref=%d wake=%d", refFinish, wakeFinish)
			}
			if !reflect.DeepEqual(refSub.issues, wakeSub.issues) {
				t.Fatalf("DMA issue streams diverged: ref=%d issues wake=%d issues",
					len(refSub.issues), len(wakeSub.issues))
			}
			if !reflect.DeepEqual(ref.Stats(), wake.Stats()) {
				t.Errorf("stats diverged:\nref:  %+v\nwake: %+v", ref.Stats(), wake.Stats())
			}
		})
	}
}

// variableSubmitter completes each request after a delay drawn from a
// deterministic per-instance stream; with identical streams two
// instances deliver identical completion schedules.
type variableSubmitter struct {
	noMSHR
	completer
	next    func() clock.Global
	pending []struct {
		at clock.Global
		r  *mem.Request
	}
	issues []struct {
		at   clock.Global
		kind mem.Kind
	}
}

func (s *variableSubmitter) Submit(now clock.Global, r *mem.Request) mem.Admission {
	s.issues = append(s.issues, struct {
		at   clock.Global
		kind mem.Kind
	}{now, r.Kind})
	at := now + s.next()
	s.pending = append(s.pending, struct {
		at clock.Global
		r  *mem.Request
	}{at, r})
	return mem.Admitted
}

func (s *variableSubmitter) tick(now clock.Global) {
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

// capSubmitter is an MMU reduced to what a core can observe of its
// translation path. At most cap distinct pages await translation (the
// MSHR); the oldest is translated on the seeded cycles of release, and
// its requests complete delay cycles later. A request for a page
// awaiting translation joins it, and one for a recently translated page
// (the last tlb pages) is taken directly. A per-cycle cap of ports
// admissions is checked first, as MMU.Submit checks its TLB ports
// before its MSHR. stalls counts MSHR refusals, charged ones included.
type capSubmitter struct {
	cap, ports, tlb int
	delay           clock.Global
	release         []bool

	waiting    []pageWait
	translated []uint64
	inflight   []timedReq
	portCycle  clock.Global
	portUsed   int

	issues                      []capIssue
	stalls, portStalls, charged int64

	// completer's arm, if set, re-arms the wake-driven twin: at a
	// completion, and when a translation frees a slot of a full MSHR
	// (the MMU's OnMSHRFreed seam).
	completer
}

type pageWait struct {
	page uint64
	reqs []*mem.Request
}

type timedReq struct {
	at clock.Global
	r  *mem.Request
}

type capIssue struct {
	at    clock.Global
	kind  mem.Kind
	vaddr uint64
}

const capPageShift = 12

func (s *capSubmitter) MSHRFull(int) bool { return len(s.waiting) >= s.cap }

func (s *capSubmitter) ChargeMSHRStalls(_ int, n int64) {
	s.stalls += n
	s.charged += n
}

func (s *capSubmitter) Submit(now clock.Global, r *mem.Request) mem.Admission {
	if s.portCycle != now {
		s.portCycle, s.portUsed = now, 0
	}
	if s.portUsed >= s.ports {
		s.portStalls++
		return mem.PortsBusy
	}
	page := r.VAddr >> capPageShift
	w := slices.IndexFunc(s.waiting, func(w pageWait) bool { return w.page == page })
	switch {
	case slices.Contains(s.translated, page):
		s.complete(now, r)
	case w >= 0:
		s.waiting[w].reqs = append(s.waiting[w].reqs, r)
	case s.MSHRFull(0):
		s.stalls++
		return mem.MSHRFull
	default:
		s.waiting = append(s.waiting, pageWait{page: page, reqs: []*mem.Request{r}})
	}
	s.portUsed++
	s.issues = append(s.issues, capIssue{now, r.Kind, r.VAddr})
	return mem.Admitted
}

func (s *capSubmitter) complete(now clock.Global, r *mem.Request) {
	s.inflight = append(s.inflight, timedReq{now + s.delay, r})
}

// tick runs cycle now before the core ticks, as the MMU and DRAM tick
// before the cores: the release, then the completions due.
func (s *capSubmitter) tick(now clock.Global) {
	if s.release[now] && len(s.waiting) > 0 {
		full := s.MSHRFull(0)
		w := s.waiting[0]
		s.waiting = s.waiting[1:]
		s.translated = append(s.translated, w.page)
		if len(s.translated) > s.tlb {
			s.translated = s.translated[1:]
		}
		for _, r := range w.reqs {
			s.complete(now, r)
		}
		if full && s.arm != nil {
			s.arm(now)
		}
	}
	out := s.inflight[:0]
	for _, p := range s.inflight {
		if p.at > now {
			out = append(out, p)
			continue
		}
		s.deliver(now, p.r)
	}
	s.inflight = out
}

// TestCoreSleepsOnFullMSHR is the twin test of a core that sleeps while
// its pending request can only be refused for a full MSHR. The
// reference core ticks every cycle and re-submits on each; the
// wake-driven twin ticks only when armed, is woken by completions and
// by a translation freeing its full MSHR, catches skipped windows up
// with SkipTo before a late tick, and ends, asleep mid-stall, with the
// kernel's end-of-run SkipTo. Both cores must issue the same requests
// on the same cycles, emit the same probe stream, end with the same
// Stats, and count the same MSHR refusals, the twin's mostly charged by
// settlement; the reference makes every refusal it counts. The 2 GHz core has 8 DMA slots per global cycle against
// 4 ports, so it also meets port refusals, which must not put it to
// sleep; the 700 MHz core has global cycles on which its clock does not
// advance, so a slept window holds cycles it would not have retried on,
// and a walk can free its MSHR, or a load return and ready an SPM swap,
// on a cycle it cannot act on.
func TestCoreSleepsOnFullMSHR(t *testing.T) {
	for _, tc := range []struct {
		name  string
		freq  clock.Hz
		cap   int
		odds  int // a translation on one cycle in odds
		delay clock.Global
		seed  int64
	}{
		{"1GHz", clock.GHz, 2, 12, 61, 1},
		{"1GHz-cap1", clock.GHz, 1, 30, 9, 2},
		{"700MHz", 700 * clock.MHz, 1, 12, 61, 3},
		{"700MHz-cap2", 700 * clock.MHz, 2, 30, 9, 4},
		{"2GHz", 2 * clock.GHz, 3, 12, 61, 5},
		{"2GHz-cap1", 2 * clock.GHz, 1, 12, 9, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const minHorizon = 60_000
			rng := rand.New(rand.NewSource(tc.seed))
			release := make([]bool, 4*minHorizon)
			for i := range release {
				release[i] = rng.Intn(tc.odds) == 0
			}
			arch := TinyCore()
			arch.FreqHz = tc.freq
			// 64 tiles, each with stores: stores wait on the MSHR while
			// the next tile's loads are still returning.
			sched := buildSchedule(t, arch, model.Network{Name: "fc", Layers: []model.Layer{
				{Name: "fc", Kind: model.FC, M: 1024, K: 512, N: 512},
			}})
			dom := clock.NewDomain(arch.FreqHz, clock.GHz)
			newSub := func() *capSubmitter {
				return &capSubmitter{cap: tc.cap, ports: 4, tlb: 2, delay: tc.delay, release: release, portCycle: -1}
			}

			refSub := newSub()
			ref := mustCore(t, arch, sched, dom, refSub)
			const far = clock.Global(clock.FarFuture)
			armed, last := clock.Global(0), clock.Global(-1)
			wakeSub := newSub()
			wakeSub.arm = func(at clock.Global) { armed = min(armed, at) }
			wake := mustCore(t, arch, sched, dom, wakeSub)
			var refEv, wakeEv []obs.Event
			ref.Obs = obs.Func(func(e obs.Event) { refEv = append(refEv, e) })
			wake.Obs = obs.Func(func(e obs.Event) { wakeEv = append(wakeEv, e) })

			// Run past minHorizon until the twin has slept a few cycles
			// on a full MSHR, so the final SkipTo has a stall to settle.
			ticks := 0
			now := clock.Global(0)
			for ; now < minHorizon || !wake.stalled() || last > now-4; now++ {
				if int(now) == len(release) {
					t.Fatal("the twin never ended the run asleep on a full MSHR")
				}
				refSub.tick(now)
				ref.Tick(now)
				wakeSub.tick(now)
				if armed > now {
					continue
				}
				if last < now-1 {
					wake.SkipTo(now)
				}
				wake.Tick(now)
				last = now
				ticks++
				next := wake.NextEventAfter(now)
				if next <= now {
					t.Fatalf("cycle %d: horizon %d not in the future", now, next)
				}
				armed = min(next, far)
			}
			wake.SkipTo(now)

			if refSub.stalls == 0 || (tc.freq > clock.GHz && refSub.portStalls == 0) {
				t.Fatalf("reference met %d MSHR and %d port refusals; the case exercises neither path",
					refSub.stalls, refSub.portStalls)
			}
			if !reflect.DeepEqual(refSub.issues, wakeSub.issues) {
				n := min(len(refSub.issues), len(wakeSub.issues))
				i := 0
				for i < n && refSub.issues[i] == wakeSub.issues[i] {
					i++
				}
				t.Fatalf("issue streams diverged at issue %d of ref=%d wake=%d", i, len(refSub.issues), len(wakeSub.issues))
			}
			if !reflect.DeepEqual(ref.Stats(), wake.Stats()) {
				t.Errorf("stats diverged:\nref:  %+v\nwake: %+v", ref.Stats(), wake.Stats())
			}
			if !reflect.DeepEqual(refEv, wakeEv) {
				n := min(len(refEv), len(wakeEv))
				i := 0
				for i < n && refEv[i] == wakeEv[i] {
					i++
				}
				t.Fatalf("probe streams diverged at event %d of ref=%d wake=%d", i, len(refEv), len(wakeEv))
			}
			if refSub.charged != 0 {
				t.Errorf("the reference, ticked on every cycle, was charged %d refusals it did not make", refSub.charged)
			}
			if refSub.stalls != wakeSub.stalls {
				t.Errorf("MSHR refusals: ref %d, wake %d (%d of them charged)", refSub.stalls, wakeSub.stalls, wakeSub.charged)
			}
			if refSub.portStalls != wakeSub.portStalls {
				t.Errorf("port refusals: ref %d, wake %d", refSub.portStalls, wakeSub.portStalls)
			}
			if wakeSub.charged == 0 || ticks >= int(now)/2 {
				t.Errorf("wake twin ticked on %d of %d cycles and charged %d refusals; a sleeping core should skip most",
					ticks, now, wakeSub.charged)
			}
			t.Logf("%d MSHR refusals (%d charged), %d port refusals; wake twin ticked %d of %d cycles",
				refSub.stalls, wakeSub.charged, refSub.portStalls, ticks, now)
		})
	}
}
