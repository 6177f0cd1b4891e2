package dram

import (
	"fmt"

	"mnpusim/internal/clock"
	"mnpusim/internal/mem"
	"mnpusim/internal/obs"
)

// Memory is one DRAM device: a set of channels with per-channel
// controllers, plus per-core channel routing for bandwidth sharing and
// partitioning.
type Memory struct {
	cfg      Config
	channels []*channel
	mappers  []Mapper // indexed by core

	// moved[core] counts the bytes of core's completed bursts, by class.
	moved []CoreBytes

	// OnEnqueue, if non-nil, is called after a request is admitted into
	// channel ch's controller queue. The event-driven kernel uses it to
	// arm the channel's wake entry: an enqueue at cycle now means the
	// channel can change state at now+1.
	OnEnqueue func(now clock.Global, ch int)

	// OnComplete, if non-nil, is called when a request's burst retires
	// at cycle done. It is the one completion path: the system hands a
	// page-table read to the MMU and a data request to its core, then
	// re-arms that consumer: the MMU on the completion cycle, the core
	// at its post-completion horizon.
	OnComplete func(done clock.Global, r *mem.Request)

	// OnSlotFreed, if non-nil, is called when TickChannel takes channel
	// ch's controller queue from full to not full (a CAS left it) at
	// cycle now. The event-driven kernel uses it to wake the MMU in that
	// same cycle: a sleeping MMU waits for exactly this to retry a
	// refused admission.
	OnSlotFreed func(now clock.Global, ch int)

	// obs, if non-nil, receives structured probe events (enqueues,
	// transfers, and the per-channel command stream). Observation never
	// alters scheduling.
	obs obs.Sink
}

// New creates a Memory. Every core that issues requests must be routed
// with SetCoreChannels before the first Enqueue; cores without an
// explicit assignment share all channels.
func New(cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Memory{cfg: cfg}
	m.channels = make([]*channel, cfg.Channels)
	for i := range m.channels {
		m.channels[i] = newChannel(m, i)
	}
	return m, nil
}

// SetObs attaches a probe-event sink to the device and every channel
// controller; nil detaches it.
func (m *Memory) SetObs(s obs.Sink) {
	m.obs = s
	for _, ch := range m.channels {
		ch.obs = s
	}
}

// SetCoreChannels routes core's physical blocks across the given channel
// set. Passing nil or an empty set assigns all channels. It rejects a
// negative core or a channel outside the device.
func (m *Memory) SetCoreChannels(core int, channels []int) error {
	if core < 0 {
		return fmt.Errorf("dram: negative core %d", core)
	}
	for _, ch := range channels {
		if ch < 0 || ch >= m.cfg.Channels {
			return fmt.Errorf("dram: core %d routed to channel %d, device has %d", core, ch, m.cfg.Channels)
		}
	}
	for core >= len(m.mappers) {
		m.mappers = append(m.mappers, Mapper{})
	}
	if len(channels) == 0 {
		channels = make([]int, m.cfg.Channels)
		for i := range channels {
			channels[i] = i
		}
	}
	m.mappers[core] = NewMapper(m.cfg, channels)
	return nil
}

// mapperFor returns core's mapper, by pointer: a Mapper carries a
// divisor per address field.
func (m *Memory) mapperFor(core int) *Mapper {
	if core >= 0 && core < len(m.mappers) && len(m.mappers[core].channels) > 0 {
		return &m.mappers[core]
	}
	all := make([]int, m.cfg.Channels)
	for i := range all {
		all[i] = i
	}
	mp := NewMapper(m.cfg, all)
	if core < 0 {
		return &mp
	}
	for core >= len(m.mappers) {
		m.mappers = append(m.mappers, Mapper{})
	}
	m.mappers[core] = mp
	return &m.mappers[core]
}

// Route returns the channel r's physical address maps to. It decodes
// the channel (only the channel) the first time it sees r and caches it
// on the request, so every later admission check is O(1).
func (m *Memory) Route(r *mem.Request) int {
	if !r.Routed {
		r.Channel, _ = m.mapperFor(r.Core).split(r.Addr)
		r.Routed = true
	}
	return r.Channel
}

// HasSpace reports whether channel ch's controller queue would admit a
// request right now.
func (m *Memory) HasSpace(ch int) bool { return m.channels[ch].canAccept() }

// ChargeRefusals adds n refused admissions to channel ch's
// QueueFullRejects. A client that sleeps through cycles on which it
// would have retried a refused request settles those refusals here; it
// changes no scheduling state.
func (m *Memory) ChargeRefusals(ch int, n int64) { m.channels[ch].stats.QueueFullRejects += n }

// Enqueue admits r into its channel's controller queue. It returns false
// (and charges one refusal to the channel) if the queue is full; the
// caller should retry on a later cycle. A refusal costs one Route; the
// full Location is decoded only for an admitted request. OnComplete
// announces the request when its data burst retires (Memory.complete).
//
//lint:allow wakecontract audited stimulus seam: OnEnqueue re-arms the landing channel, and complete's OnComplete re-arms the walk consumer at the burst's completion cycle and the data consumer at its post-completion horizon
func (m *Memory) Enqueue(now clock.Global, r *mem.Request) bool {
	ch := m.channels[m.Route(r)]
	if !ch.canAccept() {
		ch.stats.QueueFullRejects++
		return false
	}
	loc := m.mapperFor(r.Core).Locate(r.Addr)
	ch.enqueue(r, loc)
	if m.obs != nil {
		m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindDRAMEnqueue, Core: int32(r.Core),
			Unit: int32(loc.Channel), A: int64(len(ch.queue))})
	}
	if m.OnEnqueue != nil {
		m.OnEnqueue(now, loc.Channel)
	}
	return true
}

// complete retires r, whose data burst on channel ch finished at cycle
// done: it emits the transfer probe, counts the bytes against r's core,
// then hands r to OnComplete, in that order.
func (m *Memory) complete(done clock.Global, ch int, r *mem.Request) {
	if m.obs != nil {
		m.obs.Emit(obs.Event{Cycle: done, Kind: obs.KindTransfer, Core: int32(r.Core),
			Unit: int32(ch), A: int64(r.Size), B: int64(r.Class)})
	}
	if r.Core >= 0 {
		for r.Core >= len(m.moved) {
			m.moved = append(m.moved, CoreBytes{})
		}
		if r.Class == mem.PageTable {
			m.moved[r.Core].PageTable += int64(r.Size)
		} else {
			m.moved[r.Core].Data += int64(r.Size)
		}
	}
	if m.OnComplete != nil {
		m.OnComplete(done, r)
	}
}

// CoreBytes splits the bytes of one core's completed bursts by class.
type CoreBytes struct {
	Data      int64
	PageTable int64
}

// MovedBy returns the bytes of core's completed bursts so far, by class.
func (m *Memory) MovedBy(core int) CoreBytes {
	if core < 0 || core >= len(m.moved) {
		return CoreBytes{}
	}
	return m.moved[core]
}

// Channels returns the number of channels in the device.
func (m *Memory) Channels() int { return len(m.channels) }

// TickChannel advances a single channel controller by one global cycle.
// The event-driven kernel uses it to tick only channels with work;
// ticking an idle channel is a no-op, so over-ticking is always safe.
// A tick that frees a slot in a full queue calls OnSlotFreed.
func (m *Memory) TickChannel(ch int, now clock.Global) {
	c := m.channels[ch]
	full := !c.canAccept()
	c.tick(now)
	if full && m.OnSlotFreed != nil && c.canAccept() {
		m.OnSlotFreed(now, ch)
	}
}

// ChannelNextEventAfter returns the earliest future cycle at which
// channel ch needs ticking: the first cycle a queued request could
// issue a command, a burst completes, or a refresh falls due. An idle
// channel still reports its next refresh deadline, so no sleep spans a
// refresh; one with no work and no refresh returns a far-future
// sentinel.
func (m *Memory) ChannelNextEventAfter(ch int, now clock.Global) clock.Global {
	return m.channels[ch].nextEventAfter(now)
}

// Stats aggregates counters across channels.
type Stats struct {
	PerChannel []ChannelStats
}

// Totals sums the per-channel counters.
func (s Stats) Totals() ChannelStats {
	var t ChannelStats
	for _, c := range s.PerChannel {
		t.Reads += c.Reads
		t.Writes += c.Writes
		t.RowHits += c.RowHits
		t.RowMisses += c.RowMisses
		t.Activates += c.Activates
		t.Precharges += c.Precharges
		t.Refreshes += c.Refreshes
		t.BytesMoved += c.BytesMoved
		t.BusBusyCycles += c.BusBusyCycles
		t.QueueFullRejects += c.QueueFullRejects
	}
	return t
}

// RowHitRate returns row hits / (hits + misses), or 0 with no traffic.
func (s Stats) RowHitRate() float64 {
	t := s.Totals()
	if t.RowHits+t.RowMisses == 0 {
		return 0
	}
	return float64(t.RowHits) / float64(t.RowHits+t.RowMisses)
}

// Stats snapshots the current counters.
func (m *Memory) Stats() Stats {
	out := Stats{PerChannel: make([]ChannelStats, len(m.channels))}
	for i, ch := range m.channels {
		out.PerChannel[i] = ch.stats
	}
	return out
}

// String describes the device.
func (m *Memory) String() string {
	return fmt.Sprintf("%s: %d ch x %d banks, peak %.1f GB/s",
		m.cfg.Name, m.cfg.Channels, m.cfg.BanksPerChannel(), m.cfg.PeakBandwidth()/1e9)
}
