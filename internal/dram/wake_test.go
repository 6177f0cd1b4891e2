package dram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/mem"
)

// completionLog records every burst completion as (cycle, request
// tag), the tag carried in VAddr, which DRAM never reads.
type completionLog struct {
	events [][2]int64
}

func (l *completionLog) done(now clock.Global, r *mem.Request) {
	l.events = append(l.events, [2]int64{now.Int64(), int64(r.VAddr)})
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
			cfg := HBM2(2)
			ref := mustNew(cfg)
			wake := mustNew(cfg)

			const far = clock.Global(clock.FarFuture)
			armed := make([]clock.Global, cfg.Channels)
			wake.OnEnqueue = func(now clock.Global, ch int) {
				if now+1 < armed[ch] {
					armed[ch] = now + 1
				}
			}

			var refLog, wakeLog completionLog
			ref.OnComplete, wake.OnComplete = refLog.done, wakeLog.done
			var tag uint64
			request := func(addr uint64, kind mem.Kind) *mem.Request {
				return &mem.Request{Core: 0, VAddr: tag, Addr: addr, Size: 64, Kind: kind}
			}

			stream := newRequestStream(seed)
			for now := clock.Global(0); now < streamCycles || busy(ref) || busy(wake); now++ {
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
				for _, sr := range stream.draw(now) {
					tag++
					okRef := ref.Enqueue(now, request(sr.addr, sr.kind))
					okWake := wake.Enqueue(now, request(sr.addr, sr.kind))
					if okRef != okWake {
						t.Fatalf("cycle %d: enqueue acceptance diverged (ref=%v wake=%v)", now, okRef, okWake)
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

// streamCycles is how long the seeded request stream enqueues.
const streamCycles = 40_000

// requestStream draws TestChannelWakeContract's seeded request stream
// one cycle at a time: the requests enqueued after the cycle's ticks.
type requestStream struct{ rng *rand.Rand }

func newRequestStream(seed int64) requestStream {
	return requestStream{rng: rand.New(rand.NewSource(seed))}
}

// streamRequest is one block request of the stream.
type streamRequest struct {
	addr uint64
	kind mem.Kind
}

// draw returns the cycle's requests: none from streamCycles on. A few
// hot rows plus a wide tail: row hits, conflicts, and queue pressure
// all occur.
func (s requestStream) draw(now clock.Global) []streamRequest {
	if now >= streamCycles || s.rng.Intn(4) != 0 {
		return nil
	}
	out := make([]streamRequest, 1+s.rng.Intn(4))
	for i := range out {
		out[i] = streamRequest{addr: uint64(s.rng.Intn(1<<14)) * 64, kind: mem.Read}
		if s.rng.Intn(3) == 0 {
			out[i].kind = mem.Write
		}
	}
	return out
}

// BenchmarkDRAMChannelTick replays TestChannelWakeContract's seeded
// stream (seed 1) into a two-channel device driven as the event kernel
// drives one: a channel ticks only at its horizon, and an admission
// re-arms its channel at the recomputed horizon (the enqueue seam).
// Completions go to one no-op hook, so allocations are the device's
// own plus the requests. One op is the whole stream.
func BenchmarkDRAMChannelTick(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		cfg := HBM2(2)
		m := mustNew(cfg)
		m.OnComplete = func(clock.Global, *mem.Request) {}
		armed := make([]clock.Global, cfg.Channels)
		m.OnEnqueue = func(now clock.Global, ch int) {
			armed[ch] = min(armed[ch], m.ChannelNextEventAfter(ch, now))
		}
		stream := newRequestStream(1)
		for now := clock.Global(0); now < streamCycles || busy(m); now++ {
			for ch := range armed {
				if armed[ch] <= now {
					m.TickChannel(ch, now)
					armed[ch] = m.ChannelNextEventAfter(ch, now)
				}
			}
			for _, sr := range stream.draw(now) {
				m.Enqueue(now, &mem.Request{Addr: sr.addr, Size: 64, Kind: sr.kind})
			}
		}
	}
}
