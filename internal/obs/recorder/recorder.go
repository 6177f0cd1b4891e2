// Package recorder is the simulator's flight recorder: an always-on,
// allocation-free bounded ring buffer of probe events that tees behind
// whatever sink a run already has. When nothing goes wrong it costs a
// mutex and a few stores per event and is never read; when a job hangs,
// trips an invariant, errors out, or is cancelled, the last window of
// events per component is still there to dump and replay.
//
// Layout: one ring per event source — ring 0 for system events
// (run/phase/skip, Core == -1), one ring per core, one ring per DRAM
// channel. Per-source rings mean a chatty component (a thrashing DRAM
// channel) cannot evict the quieter cores' history, which is exactly
// the failure mode a contention study hits.
//
// The dump is a compact varint-delta binary format (magic "MNPUFR1\0")
// decodable offline by mnputrace -mode postmortem, which replays the
// window into the validated Chrome-trace exporter and the metric
// registry. Dumps of the same simulation prefix are byte-identical:
// the format contains no timestamps, hostnames, or map-ordered data.
package recorder

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"

	"mnpusim/internal/clock"
	"mnpusim/internal/obs"
)

// Magic identifies a flight-recorder dump, version 1.
const Magic = "MNPUFR1\x00"

// DefaultRingCap is the per-ring event capacity when the caller does
// not choose one. At 24 B + string header per event this bounds a
// dual-core, dual-channel recorder well under 2 MiB.
const DefaultRingCap = 4096

// ring is a fixed-capacity circular buffer of events. Writes never
// allocate: the slot array is laid down once at construction.
type ring struct {
	buf     []obs.Event
	start   int
	n       int
	dropped int64
}

func (r *ring) push(e obs.Event) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// at returns the i-th oldest event.
func (r *ring) at(i int) obs.Event {
	return r.buf[(r.start+i)%len(r.buf)]
}

// Recorder is an obs.Sink recording the trailing window of events per
// (system, core, channel) source. It is safe for concurrent use: Emit
// from the simulation goroutine and Dump from an HTTP handler or
// watchdog may race, and the dump sees a consistent snapshot.
type Recorder struct {
	mu        sync.Mutex
	cores     int
	channels  int
	cap       int
	rings     []ring
	coreInfo  []string
	lastCycle clock.Global
}

// New returns a recorder with one ring per source sized capPerRing
// events (DefaultRingCap when capPerRing <= 0). cores and channels fix
// the ring layout; events indexing outside it fall back to the system
// ring rather than being lost.
func New(cores, channels, capPerRing int) *Recorder {
	if capPerRing <= 0 {
		capPerRing = DefaultRingCap
	}
	if cores < 0 {
		cores = 0
	}
	if channels < 0 {
		channels = 0
	}
	r := &Recorder{
		cores:    cores,
		channels: channels,
		cap:      capPerRing,
		rings:    make([]ring, 1+cores+channels),
		coreInfo: make([]string, cores),
	}
	// One backing array for all rings keeps the recorder a single
	// allocation block and the per-ring slices fixed for life.
	backing := make([]obs.Event, len(r.rings)*capPerRing)
	for i := range r.rings {
		r.rings[i].buf = backing[i*capPerRing : (i+1)*capPerRing]
	}
	return r
}

// ringFor routes an event to its source ring. DRAM-family events are
// keyed by channel (their Core is the *issuing* core and KindRefresh
// has none); everything else with a valid core index goes to that
// core's ring; the rest is system history.
func (r *Recorder) ringFor(e obs.Event) int {
	switch e.Kind {
	case obs.KindDRAMEnqueue, obs.KindDRAMIssue, obs.KindRowHit, obs.KindRowMiss,
		obs.KindRowConflict, obs.KindRefresh, obs.KindTransfer:
		if int(e.Unit) < r.channels && e.Unit >= 0 {
			return 1 + r.cores + int(e.Unit)
		}
	default:
		if int(e.Core) < r.cores && e.Core >= 0 {
			return 1 + int(e.Core)
		}
	}
	return 0
}

// Emit records one event. It never allocates and never blocks beyond
// the recorder mutex.
func (r *Recorder) Emit(e obs.Event) {
	r.mu.Lock()
	if e.Kind == obs.KindCoreInfo && e.Core >= 0 && int(e.Core) < len(r.coreInfo) {
		// Keep core names sticky: they are emitted once at run start and
		// would otherwise age out of the ring long before any anomaly.
		r.coreInfo[e.Core] = e.Str
	}
	if e.Cycle > r.lastCycle {
		r.lastCycle = e.Cycle
	}
	r.rings[r.ringFor(e)].push(e)
	r.mu.Unlock()
}

// Dropped returns the total number of events evicted across all rings.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for i := range r.rings {
		total += r.rings[i].dropped
	}
	return total
}

// DumpBytes serializes the recorder's current window with the given
// anomaly reason. Safe to call while the simulation is still emitting.
func (r *Recorder) DumpBytes(reason string) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()

	var buf []byte
	var scratch [binary.MaxVarintLen64]byte
	putU := func(v uint64) {
		buf = append(buf, scratch[:binary.PutUvarint(scratch[:], v)]...)
	}
	putI := func(v int64) {
		buf = append(buf, scratch[:binary.PutVarint(scratch[:], v)]...)
	}
	putS := func(s string) {
		putU(uint64(len(s)))
		buf = append(buf, s...)
	}

	buf = append(buf, Magic...)
	putU(uint64(r.cores))
	putU(uint64(r.channels))
	putU(uint64(r.cap))
	putS(reason)
	putI(r.lastCycle.Int64())
	putU(uint64(len(r.coreInfo)))
	for _, name := range r.coreInfo {
		putS(name)
	}
	putU(uint64(len(r.rings)))
	for i := range r.rings {
		rg := &r.rings[i]
		putI(rg.dropped)
		putU(uint64(rg.n))
		prev := int64(0)
		for j := 0; j < rg.n; j++ {
			e := rg.at(j)
			buf = append(buf, byte(e.Kind))
			c := e.Cycle.Int64()
			putI(c - prev)
			prev = c
			putI(int64(e.Core))
			putU(uint64(e.Unit))
			putI(e.A)
			putI(e.B)
			putS(e.Str)
		}
	}
	return buf
}

// RingDump is one source's decoded window.
type RingDump struct {
	// Dropped counts events evicted from this ring before the dump.
	Dropped int64
	// Events holds the surviving window, oldest first.
	Events []obs.Event
}

// Dump is a decoded flight-recorder dump.
type Dump struct {
	// Reason is the anomaly that triggered the dump (e.g. "watchdog",
	// "cancelled", "panic: ..." or "on-demand").
	Reason string
	// Cores and Channels fix the ring layout: ring 0 is system history,
	// rings 1..Cores are per-core, the rest per DRAM channel.
	Cores    int
	Channels int
	// Cap is the per-ring capacity the recorder ran with.
	Cap int
	// LastCycle is the newest cycle the recorder ever saw (even if that
	// event was later evicted).
	LastCycle clock.Global
	// CoreInfo holds each core's workload name, sticky from run start.
	CoreInfo []string
	// Rings holds the per-source windows.
	Rings []RingDump
}

// decoder walks a dump buffer with bounds-checked varint reads.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("string length %d overruns buffer at offset %d", n, d.off)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Decode parses a dump produced by DumpBytes.
func Decode(data []byte) (*Dump, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("not a flight-recorder dump (magic %q missing)", Magic)
	}
	d := &decoder{buf: data, off: len(Magic)}

	dump := &Dump{}
	dump.Cores = int(d.uvarint())
	dump.Channels = int(d.uvarint())
	dump.Cap = int(d.uvarint())
	dump.Reason = d.str()
	//lint:allow cycletypes wire-decode boundary: the dump format stores cycles as varints, same pattern as config parse
	dump.LastCycle = clock.Global(d.varint())
	nInfo := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if nInfo > uint64(len(data)) {
		return nil, fmt.Errorf("implausible core-info count %d", nInfo)
	}
	dump.CoreInfo = make([]string, nInfo)
	for i := range dump.CoreInfo {
		dump.CoreInfo[i] = d.str()
	}
	nRings := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if nRings > uint64(len(data)) {
		return nil, fmt.Errorf("implausible ring count %d", nRings)
	}
	dump.Rings = make([]RingDump, nRings)
	for i := range dump.Rings {
		rg := &dump.Rings[i]
		rg.Dropped = d.varint()
		n := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		if n > uint64(len(data)) {
			return nil, fmt.Errorf("ring %d: implausible event count %d", i, n)
		}
		rg.Events = make([]obs.Event, n)
		prev := int64(0)
		for j := range rg.Events {
			e := &rg.Events[j]
			if d.off >= len(d.buf) {
				d.fail("ring %d: truncated at event %d", i, j)
				break
			}
			e.Kind = obs.Kind(d.buf[d.off])
			d.off++
			prev += d.varint()
			//lint:allow cycletypes wire-decode boundary: cycle deltas come off the wire as varints
			e.Cycle = clock.Global(prev)
			e.Core = int32(d.varint())
			e.Unit = int32(d.uvarint())
			e.A = d.varint()
			e.B = d.varint()
			e.Str = d.str()
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("%d trailing bytes after dump", len(data)-d.off)
	}
	return dump, nil
}

// mergedEvent tags an event with its origin for deterministic ordering.
type mergedEvent struct {
	e    obs.Event
	ring int
	seq  int
}

// Merged returns all recorded events in one deterministic order: by
// cycle, then ring index, then intra-ring order. Two dumps of the same
// window merge identically.
func (d *Dump) Merged() []obs.Event {
	total := 0
	for i := range d.Rings {
		total += len(d.Rings[i].Events)
	}
	tagged := make([]mergedEvent, 0, total)
	for i := range d.Rings {
		for j, e := range d.Rings[i].Events {
			tagged = append(tagged, mergedEvent{e: e, ring: i, seq: j})
		}
	}
	sort.SliceStable(tagged, func(a, b int) bool {
		if tagged[a].e.Cycle != tagged[b].e.Cycle {
			return tagged[a].e.Cycle < tagged[b].e.Cycle
		}
		if tagged[a].ring != tagged[b].ring {
			return tagged[a].ring < tagged[b].ring
		}
		return tagged[a].seq < tagged[b].seq
	})
	out := make([]obs.Event, total)
	for i := range tagged {
		out[i] = tagged[i].e
	}
	return out
}

// Events returns the total recorded event count.
func (d *Dump) Events() int {
	total := 0
	for i := range d.Rings {
		total += len(d.Rings[i].Events)
	}
	return total
}

// TotalDropped returns the evicted-event count summed over rings.
func (d *Dump) TotalDropped() int64 {
	var total int64
	for i := range d.Rings {
		total += d.Rings[i].Dropped
	}
	return total
}

// WriteChromeTrace replays the dump's window into the Chrome trace
// exporter, producing a timeline that passes ValidateChromeTrace even
// though the window may start mid-tile or mid-walk: finish events whose
// start was evicted are skipped, core names are re-seeded from the
// sticky CoreInfo, a window or refresh of negative duration (which only
// a damaged dump holds) is dropped, and a synthetic run-end closes any
// span still open at the window's last cycle. A run end closes every
// open span in the exporter, so the replay forgets its open spans there
// too, and a finish after it is one whose start the run end already
// closed.
func (d *Dump) WriteChromeTrace(w io.Writer) error {
	ct := obs.NewChromeTrace(w)

	for core, name := range d.CoreInfo {
		if name != "" {
			ct.Emit(obs.Event{Kind: obs.KindCoreInfo, Core: int32(core), Str: name})
		}
	}

	tileDepth := make(map[int32]int)
	openWalks := make(map[int32]map[int64]int)
	open := 0 // spans begun since the last run end and not yet finished
	sawEnd := false
	last := d.LastCycle
	for _, e := range d.Merged() {
		last = max(last, e.Cycle)
		switch e.Kind {
		case obs.KindTileStart:
			tileDepth[e.Core]++
			open++
		case obs.KindTileFinish:
			if tileDepth[e.Core] == 0 {
				continue // start evicted from the window
			}
			tileDepth[e.Core]--
			open--
		case obs.KindWalkStart:
			if openWalks[e.Core] == nil {
				openWalks[e.Core] = map[int64]int{}
			}
			openWalks[e.Core][e.A]++
			open++
		case obs.KindWalkEnd:
			if openWalks[e.Core][e.A] == 0 {
				continue // start evicted from the window
			}
			openWalks[e.Core][e.A]--
			open--
		case obs.KindSkipWindow, obs.KindRefresh:
			if e.A < 0 {
				continue // a duration no recorder writes
			}
		case obs.KindRunEnd:
			sawEnd = true
			clear(tileDepth)
			clear(openWalks)
			open = 0
		}
		ct.Emit(e)
	}
	if !sawEnd || open > 0 {
		ct.Emit(obs.Event{
			Kind:  obs.KindRunEnd,
			Cycle: last,
			Core:  -1,
			A:     last.Int64(),
		})
	}
	return ct.Close()
}

// Snapshot replays the window into a fresh metric registry and returns
// its snapshot: the attribution-style counter view of the final window.
// Counts cover only what the rings retained, so they are a floor, not a
// whole-run total.
func (d *Dump) Snapshot() obs.Snapshot {
	reg := obs.NewRegistry()
	sink := obs.NewRegistrySink(reg)
	for _, e := range d.Merged() {
		sink.Emit(e)
	}
	return reg.Snapshot()
}
