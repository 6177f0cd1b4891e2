package mmu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/mem"
)

// issueEvent is one translated request arriving at the backend.
type issueEvent struct {
	Cycle clock.Global
	Core  int
	VAddr uint64
	Addr  uint64
}

// recordingBackend always accepts and logs every drained request; the
// MMU's externally observable behaviour is exactly this stream.
type recordingBackend struct {
	events []issueEvent
}

func (b *recordingBackend) Channels() int             { return 1 }
func (b *recordingBackend) Route(*mem.Request) int    { return 0 }
func (b *recordingBackend) HasSpace(int) bool         { return true }
func (b *recordingBackend) ChargeRefusals(int, int64) {}

func (b *recordingBackend) Enqueue(now clock.Global, r *mem.Request) bool {
	b.events = append(b.events, issueEvent{Cycle: now, Core: r.Core, VAddr: r.VAddr, Addr: r.Addr})
	return true
}

// TestMMUWakeContract is the mmu half of the event kernel's wake
// contract: after Tick(now), the MMU's observable state must not change
// before its reported NextEventAfter(now) unless a Submit lands first.
// Two identical MMUs replay one seeded random submit stream — the
// reference ticks every cycle, the other ticks only at its armed wake
// cycle (re-armed to now+1 by each successful Submit, exactly as the
// kernel's wakeSubmitter does). A state change the contract failed to
// announce makes the backend issue streams or final stats diverge.
func TestMMUWakeContract(t *testing.T) {
	const cores = 2
	for _, seed := range []int64{3, 11, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := testMMUConfig(cores)
			var refBack, wakeBack recordingBackend
			ref := newTestMMU(t, cfg, &refBack)
			wake := newTestMMU(t, cfg, &wakeBack)

			const far = clock.Global(clock.FarFuture)
			armed := clock.Global(0)

			const cycles = 30_000
			for now := clock.Global(0); now < cycles || ref.Busy() || wake.Busy(); now++ {
				ref.Tick(now)
				if armed <= now {
					wake.Tick(now)
					next := wake.NextEventAfter(now)
					if next <= now {
						t.Fatalf("cycle %d: horizon %d not in the future", now, next)
					}
					armed = min(next, far)
				}
				// Submits land after the cycle's ticks, as the cores' do
				// in the simulator; a success at now means the MMU can
				// change state at now+1, so it re-arms there. A refusal
				// is dropped on both sides — acceptance parity keeps the
				// twins in lockstep.
				if now < cycles && rng.Intn(5) == 0 {
					n := 1 + rng.Intn(3)
					for i := 0; i < n; i++ {
						core := rng.Intn(cores)
						// A small page pool drives TLB hits, misses, and
						// coalesced walks; the offset varies freely.
						va := uint64(rng.Intn(48))<<12 | uint64(rng.Intn(64))*64
						mk := func() *mem.Request {
							return &mem.Request{Core: core, VAddr: va, Size: 64, Kind: mem.Read, Class: mem.Data}
						}
						okRef := ref.Submit(now, mk())
						okWake := wake.Submit(now, mk())
						if okRef != okWake {
							t.Fatalf("cycle %d: submit acceptance diverged (ref=%v wake=%v)", now, okRef, okWake)
						}
						if okRef && now+1 < armed {
							armed = now + 1
						}
					}
				}
			}

			if !reflect.DeepEqual(refBack.events, wakeBack.events) {
				t.Fatalf("issue streams diverged: ref=%d events wake=%d events", len(refBack.events), len(wakeBack.events))
			}
			for c := 0; c < cores; c++ {
				if ref.Stats(c) != wake.Stats(c) {
					t.Errorf("core %d stats diverged:\nref:  %+v\nwake: %+v", c, ref.Stats(c), wake.Stats(c))
				}
			}
		})
	}
}

// refusingBackend admits at most capacity requests per channel and
// frees a slot only when the test says so, at seeded cycles; the freed
// request completes refusingLatency cycles later. It is a DRAM controller whose
// queues fill, reduced to what the MMU can observe.
type refusingBackend struct {
	capacity int
	queues   [][]*mem.Request // per channel: admitted, slot still held
	inflight []pendingDone
	events   []issueEvent
	refused  []int64
}

type pendingDone struct {
	at clock.Global
	r  *mem.Request
}

const refusingLatency = 20

func newRefusingBackend(channels, capacity int) *refusingBackend {
	return &refusingBackend{
		capacity: capacity,
		queues:   make([][]*mem.Request, channels),
		refused:  make([]int64, channels),
	}
}

func (b *refusingBackend) Channels() int { return len(b.queues) }

func (b *refusingBackend) Route(r *mem.Request) int {
	return int((r.Addr / 64) % uint64(len(b.queues)))
}

func (b *refusingBackend) HasSpace(ch int) bool { return len(b.queues[ch]) < b.capacity }

func (b *refusingBackend) ChargeRefusals(ch int, n int64) { b.refused[ch] += n }

func (b *refusingBackend) Enqueue(now clock.Global, r *mem.Request) bool {
	ch := b.Route(r)
	if !b.HasSpace(ch) {
		b.refused[ch]++
		return false
	}
	b.queues[ch] = append(b.queues[ch], r)
	b.events = append(b.events, issueEvent{Cycle: now, Core: r.Core, VAddr: r.VAddr, Addr: r.Addr})
	return true
}

// free releases channel ch's oldest slot, its request completing
// refusingLatency cycles later, and reports whether the channel was
// full: the "DRAM slot freed" seam.
func (b *refusingBackend) free(now clock.Global, ch int) (wasFull bool) {
	q := b.queues[ch]
	if len(q) == 0 {
		return false
	}
	wasFull = len(q) == b.capacity
	b.inflight = append(b.inflight, pendingDone{at: now + refusingLatency, r: q[0]})
	b.queues[ch] = q[1:]
	return wasFull
}

// complete retires the requests due at now and reports whether one was
// a page-table read: the "burst completion → MMU" seam.
func (b *refusingBackend) complete(now clock.Global) (ptRead bool) {
	out := b.inflight[:0]
	for _, p := range b.inflight {
		if p.at > now {
			out = append(out, p)
			continue
		}
		p.r.Complete(now)
		ptRead = ptRead || p.r.Class == mem.PageTable
	}
	b.inflight = out
	return ptRead
}

func (b *refusingBackend) busy() bool {
	for _, q := range b.queues {
		if len(q) > 0 {
			return true
		}
	}
	return len(b.inflight) > 0
}

// TestMMUWakeContractRefusingBackend is TestMMUWakeContract against a
// backend that refuses admission: the MMU must sleep while every
// request it could admit waits on a full channel, wake on the seams
// alone (a slot freed in a full channel, a PTE read completing, a
// Submit re-arming it at its post-submit horizon, as the kernel's
// wakeSubmitter does), and charge the refusals of every slept cycle
// exactly. The twin ticked every cycle never sleeps, so its refusals
// are all counted by Enqueue: issue streams, stats and per-channel
// refusal counts must agree.
func TestMMUWakeContractRefusingBackend(t *testing.T) {
	const cores, channels, capacity = 2, 3, 3
	variants := map[string]func(*Config){
		"fixed-walks":    func(*Config) {},
		"dram-walks":     func(c *Config) { c.WalkMemory = DRAMBackedWalks },
		"dws":            func(c *Config) { c.WalkerPolicy = DWSStealing },
		"no-translation": func(c *Config) { c.Disabled = true },
	}
	for name, tweak := range variants {
		for _, seed := range []int64{5, 23} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				cfg := testMMUConfig(cores)
				tweak(&cfg)
				refBack := newRefusingBackend(channels, capacity)
				wakeBack := newRefusingBackend(channels, capacity)
				ref := newTestMMU(t, cfg, refBack)
				wake := newTestMMU(t, cfg, wakeBack)

				const far = clock.Global(clock.FarFuture)
				armed := clock.Global(0)
				sleeps := 0

				const cycles = 20_000
				var now clock.Global
				for ; now < cycles || ref.Busy() || wake.Busy() || refBack.busy(); now++ {
					// The backend moves first, as DRAM channels tick
					// before the MMU in the simulator.
					if rng.Intn(2) == 0 {
						ch := rng.Intn(channels)
						refBack.free(now, ch)
						if wakeBack.free(now, ch) {
							armed = min(armed, now)
						}
					}
					refBack.complete(now)
					if wakeBack.complete(now) {
						armed = min(armed, now)
					}
					ref.Tick(now)
					if armed <= now {
						wake.Tick(now)
						next := wake.NextEventAfter(now)
						if next <= now {
							t.Fatalf("cycle %d: horizon %d not in the future", now, next)
						}
						if next > now+1 {
							sleeps++
						}
						armed = min(next, far)
					}
					if now < cycles && rng.Intn(4) == 0 {
						n := 1 + rng.Intn(3)
						for i := 0; i < n; i++ {
							core := rng.Intn(cores)
							va := uint64(rng.Intn(48))<<12 | uint64(rng.Intn(64))*64
							mk := func() *mem.Request {
								return &mem.Request{Core: core, VAddr: va, Size: 64, Kind: mem.Read, Class: mem.Data}
							}
							okRef := ref.Submit(now, mk())
							okWake := wake.Submit(now, mk())
							if okRef != okWake {
								t.Fatalf("cycle %d: submit acceptance diverged (ref=%v wake=%v)", now, okRef, okWake)
							}
							if okWake {
								armed = min(armed, wake.NextEventAfter(now))
							}
						}
					}
					if now > 10*cycles {
						t.Fatal("twins never went idle")
					}
				}
				// End of run: settle what the sleeping twin still owes.
				wake.SkipTo(now)

				var refused int64
				for _, n := range refBack.refused {
					refused += n
				}
				if sleeps == 0 || refused == 0 {
					t.Fatalf("nothing exercised: the wake-driven twin slept %d times, the reference was refused %d times", sleeps, refused)
				}
				if !reflect.DeepEqual(refBack.events, wakeBack.events) {
					t.Fatalf("issue streams diverged: ref=%d events wake=%d events", len(refBack.events), len(wakeBack.events))
				}
				for c := 0; c < cores; c++ {
					if ref.Stats(c) != wake.Stats(c) {
						t.Errorf("core %d stats diverged:\nref:  %+v\nwake: %+v", c, ref.Stats(c), wake.Stats(c))
					}
				}
				if !reflect.DeepEqual(refBack.refused, wakeBack.refused) {
					t.Errorf("per-channel refusals diverged: ref=%v wake=%v", refBack.refused, wakeBack.refused)
				}
			})
		}
	}
}
