package dram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/mem"
)

// completionLog records every burst completion as (cycle, request ID).
type completionLog struct {
	events [][2]int64
}

func (l *completionLog) done(now clock.Global, r *mem.Request) {
	l.events = append(l.events, [2]int64{now.Int64(), int64(r.ID)})
}

// TestChannelWakeContract is the dram half of the event kernel's wake
// contract: after tick(now), a channel's observable state must not
// change before its reported nextEventAfter(now) unless an enqueue
// lands first. Two identical memories replay one seeded random request
// stream — the reference ticks every channel every cycle, the other
// ticks a channel only at its armed wake cycle (re-armed on enqueue
// through OnEnqueue, exactly as the kernel does). Any state change the
// contract failed to announce makes the completion streams or final
// stats diverge.
func TestChannelWakeContract(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := HBM2(2)
			ref := MustNew(cfg)
			wake := MustNew(cfg)

			const far = clock.Global(clock.FarFuture)
			armed := make([]clock.Global, cfg.Channels)
			wake.OnEnqueue = func(now clock.Global, ch int) {
				if now+1 < armed[ch] {
					armed[ch] = now + 1
				}
			}

			var refLog, wakeLog completionLog
			var refIDs, wakeIDs mem.IDAllocator
			request := func(ids *mem.IDAllocator, log *completionLog, addr uint64, kind mem.Kind) *mem.Request {
				return &mem.Request{
					ID: ids.Next(), Core: 0, Addr: addr, Size: 64, Kind: kind,
					Done: log.done,
				}
			}

			const cycles = 40_000
			for now := clock.Global(0); now < cycles || busy(ref) || busy(wake); now++ {
				tickAll(ref, now)
				for ch := 0; ch < cfg.Channels; ch++ {
					if armed[ch] > now {
						continue
					}
					wake.TickChannel(ch, now)
					next := wake.ChannelNextEventAfter(ch, now)
					if next <= now {
						t.Fatalf("cycle %d: channel %d horizon %d not in the future", now, ch, next)
					}
					armed[ch] = next
					if next > far {
						armed[ch] = far
					}
				}
				// Enqueues land after the cycle's ticks, as the MMU's do
				// in the simulator: a request admitted at now is first
				// visible to its channel at now+1 — the wake OnEnqueue
				// arms.
				if now < cycles && rng.Intn(4) == 0 {
					n := 1 + rng.Intn(4)
					for i := 0; i < n; i++ {
						// A few hot rows plus a wide tail: row hits,
						// conflicts, and queue pressure all occur.
						addr := uint64(rng.Intn(1<<14)) * 64
						kind := mem.Read
						if rng.Intn(3) == 0 {
							kind = mem.Write
						}
						okRef := ref.Enqueue(now, request(&refIDs, &refLog, addr, kind))
						okWake := wake.Enqueue(now, request(&wakeIDs, &wakeLog, addr, kind))
						if okRef != okWake {
							t.Fatalf("cycle %d: enqueue acceptance diverged (ref=%v wake=%v)", now, okRef, okWake)
						}
					}
				}
			}

			if !reflect.DeepEqual(refLog.events, wakeLog.events) {
				t.Fatalf("completion streams diverged: ref=%d events wake=%d events", len(refLog.events), len(wakeLog.events))
			}
			if !reflect.DeepEqual(ref.Stats(), wake.Stats()) {
				t.Errorf("stats diverged:\nref:  %+v\nwake: %+v", ref.Stats(), wake.Stats())
			}
		})
	}
}
