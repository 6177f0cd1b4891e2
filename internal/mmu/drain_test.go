package mmu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/mem"
)

// quotaBackend admits into per-channel free slots set by the test and
// counts every refusal, whether Enqueue makes it or the MMU charges it.
// A channel that lies reports space even when full, so the MMU offers
// its window requests and Enqueue refuses them, as with slotBackend.
type quotaBackend struct {
	free     []int
	lies     []bool
	refused  []int64
	admitted []uint64 // request tags (VAddr), in admission order
}

func newQuotaBackend(channels int) *quotaBackend {
	return &quotaBackend{free: make([]int, channels), lies: make([]bool, channels), refused: make([]int64, channels)}
}

func (b *quotaBackend) Channels() int                  { return len(b.free) }
func (b *quotaBackend) Route(r *mem.Request) int       { return int(r.Addr % uint64(len(b.free))) }
func (b *quotaBackend) HasSpace(ch int) bool           { return b.lies[ch] || b.free[ch] > 0 }
func (b *quotaBackend) ChargeRefusals(ch int, n int64) { b.refused[ch] += n }

func (b *quotaBackend) Enqueue(_ clock.Global, r *mem.Request) bool {
	ch := b.Route(r)
	if b.free[ch] == 0 {
		b.refused[ch]++
		return false
	}
	b.free[ch]--
	b.admitted = append(b.admitted, r.VAddr)
	return true
}

// scanDrainIssueQueues is drainIssueQueues driving scanDrainOne.
func scanDrainIssueQueues(m *MMU, now clock.Global) {
	n := m.cfg.Cores
	blocked := m.blocked
	clear(blocked)
	for {
		granted := false
		for i := 0; i < n; i++ {
			core := (m.rrNext + i) % n
			if blocked[core] || m.issueQ[core].Empty() {
				continue
			}
			if scanDrainOne(m, now, core) {
				m.rrNext = (core + 1) % n
				granted = true
				break
			}
			blocked[core] = true
		}
		if !granted {
			return
		}
	}
}

// scanDrainOne is the scan-and-try drain the window masks replace: it
// offers the backend every window request in order until one is
// admitted, and every refused offer is counted by Enqueue.
func scanDrainOne(m *MMU, now clock.Global, core int) bool {
	q := &m.issueQ[core]
	limit := min(q.Len(), drainWindow)
	for i := 0; i < limit; i++ {
		if m.backend.Enqueue(now, q.At(i)) {
			m.remove(core, i)
			return true
		}
	}
	return false
}

// checkWindow recomputes every window mask of m from its issue queues.
func checkWindow(t *testing.T, m *MMU) {
	t.Helper()
	want := make([]uint32, len(m.window))
	for core := range m.issueQ {
		q := &m.issueQ[core]
		for i := 0; i < min(q.Len(), drainWindow); i++ {
			want[core*m.chs+m.backend.Route(q.At(i))] |= 1 << i
		}
	}
	if !reflect.DeepEqual(m.window, want) {
		t.Fatalf("window masks %x, recomputed from the issue queues %x", m.window, want)
	}
}

// TestMaskDrainMatchesScanAndTry drives the mask drain and the
// scan-and-try reference over seeded issue queues (1–4 cores, 1–6
// channels, queues longer and shorter than the window) and seeded
// channel fullness, round after round: both must admit the same
// requests in the same order, count the same refusals per channel, and
// leave the same rrNext. In the lying variant some channels report
// space they do not have, so the mask drain takes its fall-through
// path (HasSpace says yes, Enqueue still refuses) among channels it
// charges for.
func TestMaskDrainMatchesScanAndTry(t *testing.T) {
	for _, lying := range []bool{false, true} {
		for seed := int64(1); seed <= 200; seed++ {
			t.Run(fmt.Sprintf("lying=%v/seed=%d", lying, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				cores, chs := 1+rng.Intn(4), 1+rng.Intn(6)
				cfg := testMMUConfig(cores)
				cfg.Disabled = true
				maskBack, scanBack := newQuotaBackend(chs), newQuotaBackend(chs)
				mask, scan := newTestMMU(t, cfg, maskBack), newTestMMU(t, cfg, scanBack)
				mask.rrNext = rng.Intn(cores)
				scan.rrNext = mask.rrNext
				var tag uint64
				for now := clock.Global(0); now < 8; now++ {
					// As Tick does before it drains: nothing slept.
					mask.settled, scan.settled = now+1, now+1
					for core := 0; core < cores; core++ {
						for k := rng.Intn(3 * drainWindow / 2); k > 0; k-- {
							tag++
							// A hot channel 0 fills first, so windows
							// hold runs of requests on one full channel.
							ch := rng.Intn(chs)
							if rng.Intn(3) == 0 {
								ch = 0
							}
							for _, m := range []*MMU{mask, scan} {
								m.push(now, core, &mem.Request{Core: core, VAddr: tag, Addr: uint64(ch), Size: 64})
							}
						}
					}
					for ch := 0; ch < chs; ch++ {
						free := 0
						if rng.Intn(2) == 0 {
							free = 1 + rng.Intn(3)
						}
						lies := lying && rng.Intn(2) == 0
						maskBack.free[ch], scanBack.free[ch] = free, free
						maskBack.lies[ch], scanBack.lies[ch] = lies, lies
					}
					mask.drainIssueQueues(now)
					scanDrainIssueQueues(scan, now)
					checkWindow(t, mask)
					if !reflect.DeepEqual(maskBack.admitted, scanBack.admitted) {
						t.Fatalf("cycle %d: admitted %v, scan-and-try admitted %v", now, maskBack.admitted, scanBack.admitted)
					}
					if !reflect.DeepEqual(maskBack.refused, scanBack.refused) {
						t.Fatalf("cycle %d: refusals per channel %v, scan-and-try %v", now, maskBack.refused, scanBack.refused)
					}
					if mask.rrNext != scan.rrNext {
						t.Fatalf("cycle %d: rrNext %d, scan-and-try %d", now, mask.rrNext, scan.rrNext)
					}
				}
				if len(maskBack.admitted) == 0 || sum(maskBack.refused) == 0 {
					t.Fatalf("nothing exercised: %d admitted, %d refused", len(maskBack.admitted), sum(maskBack.refused))
				}
			})
		}
	}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
