package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mnpusim/internal/clock"
)

// Track layout of the Chrome trace export. Each simulated component
// family is one trace "process" so Perfetto groups its tracks:
//
//	pid 1            sim          main-loop phases and skip windows
//	pid 100+core     core<i>      tile occupancy (tid 1) and DMA
//	                              activity (tid 2, plus an inflight
//	                              counter)
//	pid 200          dram         one thread per channel, plus a
//	                              per-channel queue-depth counter
//	pid 300+core     ptw core<i>  page-table walks as async spans,
//	                              plus a pending-MSHR counter
const (
	simPID      = 1
	corePIDBase = 100
	dramPID     = 200
	ptwPIDBase  = 300

	tileTID = 1
	dmaTID  = 2
	simTID  = 1
	walkTID = 1
)

// ChromeTrace is the Chrome trace-event JSON writer (the "traceEvents"
// object form), loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. As a Sink it lays the probe stream out on the
// tracks above, with global cycles written as microseconds, so one
// displayed microsecond is one DRAM-clock cycle. Other timelines (the
// flight recorder's replay, the serving layer's spans) write through
// NameProcess, NameThread and Complete in their own units.
//
// High-frequency scalar events (TLB hits/misses, transfers) are left to
// the registry and not written to the timeline; see the Emit switch for
// the exact mapping.
//
// ChromeTrace is not safe for concurrent use: a timeline interleaving
// several simulations is meaningless, so attach one ChromeTrace to one
// simulation. Close must be called to terminate the JSON document.
type ChromeTrace struct {
	w     *bufio.Writer
	err   error
	wrote bool

	procNamed   map[int]bool
	threadNamed map[int64]bool
	coreNames   map[int32]string

	// Spans that may still be open when the simulation stops (a core
	// can be cut off mid-tile or mid-walk at run end); KindRunEnd closes
	// them at the final cycle so the exported trace always balances.
	openTiles map[int32]int
	openWalks map[int32]map[int64]int
}

// NewChromeTrace returns a trace writing to w. The caller owns w and
// must call Close before using the output.
func NewChromeTrace(w io.Writer) *ChromeTrace {
	t := &ChromeTrace{
		w:           bufio.NewWriter(w),
		procNamed:   map[int]bool{},
		threadNamed: map[int64]bool{},
		coreNames:   map[int32]string{},
		openTiles:   map[int32]int{},
		openWalks:   map[int32]map[int64]int{},
	}
	_, t.err = t.w.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	return t
}

// Err returns the first write error, if any.
func (t *ChromeTrace) Err() error { return t.err }

// Close terminates the JSON document and flushes. The trace is invalid
// until Close returns.
func (t *ChromeTrace) Close() error {
	if t.err != nil {
		return t.err
	}
	if _, err := t.w.WriteString("\n]}\n"); err != nil {
		t.err = err
		return err
	}
	t.err = t.w.Flush()
	return t.err
}

func (t *ChromeTrace) raw(format string, args ...any) {
	if t.err != nil {
		return
	}
	if t.wrote {
		if _, t.err = t.w.WriteString(",\n"); t.err != nil {
			return
		}
	} else {
		if _, t.err = t.w.WriteString("\n"); t.err != nil {
			return
		}
		t.wrote = true
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
}

// quote returns s as a JSON string literal. %q is not JSON: it writes
// a control byte as \x01. Marshaling a string cannot fail.
func quote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// NameProcess names process pid. Only the first name given for a pid
// is written.
func (t *ChromeTrace) NameProcess(pid int, name string) {
	if !t.procNamed[pid] {
		t.procNamed[pid] = true
		t.raw(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":%s}}`, pid, quote(name))
	}
}

// NameThread names thread tid of process pid. Only the first name given
// for a track is written.
func (t *ChromeTrace) NameThread(pid, tid int, name string) {
	key := int64(pid)<<20 | int64(tid)
	if !t.threadNamed[key] {
		t.threadNamed[key] = true
		t.raw(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%s}}`, pid, tid, quote(name))
	}
}

// Complete writes a complete ("X") event lasting dur from ts on thread
// tid of process pid. args, if non-empty, is written in key order.
func (t *ChromeTrace) Complete(name string, pid, tid int, ts, dur int64, args map[string]string) {
	if len(args) == 0 {
		t.raw(`{"ph":"X","name":%s,"pid":%d,"tid":%d,"ts":%d,"dur":%d}`, quote(name), pid, tid, ts, dur)
		return
	}
	a, _ := json.Marshal(args) // cannot fail on a map of strings
	t.raw(`{"ph":"X","name":%s,"pid":%d,"tid":%d,"ts":%d,"dur":%d,"args":%s}`, quote(name), pid, tid, ts, dur, a)
}

func (t *ChromeTrace) coreName(core int32) string {
	if n, ok := t.coreNames[core]; ok {
		return fmt.Sprintf("core%d %s", core, n)
	}
	return fmt.Sprintf("core%d", core)
}

func (t *ChromeTrace) ensureCoreTracks(core int32) int {
	pid := corePIDBase + int(core)
	t.NameProcess(pid, t.coreName(core))
	t.NameThread(pid, tileTID, "tiles")
	t.NameThread(pid, dmaTID, "dma")
	return pid
}

func (t *ChromeTrace) ensureChannelTrack(ch int32) {
	t.NameProcess(dramPID, "dram")
	t.NameThread(dramPID, int(ch)+1, fmt.Sprintf("ch%d", ch))
}

func (t *ChromeTrace) ensurePTWTracks(core int32) int {
	pid := ptwPIDBase + int(core)
	t.NameProcess(pid, fmt.Sprintf("ptw core%d", core))
	t.NameThread(pid, walkTID, "walks")
	return pid
}

func (t *ChromeTrace) ensureSimTracks() {
	t.NameProcess(simPID, "sim")
	t.NameThread(simPID, simTID, "loop")
}

// closeOpenSpans ends every tile and walk span still open when the
// simulation stops, at the final cycle, so the exported trace always
// has balanced spans. Iteration is sorted so identical runs produce
// byte-identical traces. It empties both maps: a replayed
// flight-recorder window may hold many run ends, and each must cost
// only the spans opened since the last.
func (t *ChromeTrace) closeOpenSpans(ts clock.Global) {
	var cores []int32
	for core, depth := range t.openTiles {
		if depth > 0 {
			cores = append(cores, core)
		}
	}
	sort.Slice(cores, func(i, j int) bool { return cores[i] < cores[j] })
	for _, core := range cores {
		pid := corePIDBase + int(core)
		for i := 0; i < t.openTiles[core]; i++ {
			t.raw(`{"ph":"E","pid":%d,"tid":%d,"ts":%d}`, pid, tileTID, ts)
		}
	}

	cores = cores[:0]
	for core, walks := range t.openWalks {
		if len(walks) > 0 {
			cores = append(cores, core)
		}
	}
	sort.Slice(cores, func(i, j int) bool { return cores[i] < cores[j] })
	for _, core := range cores {
		pid := ptwPIDBase + int(core)
		vpns := make([]int64, 0, len(t.openWalks[core]))
		for vpn := range t.openWalks[core] {
			vpns = append(vpns, vpn)
		}
		sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
		for _, vpn := range vpns {
			for i := 0; i < t.openWalks[core][vpn]; i++ {
				t.raw(`{"ph":"e","cat":"walk","id":"%#x","name":"walk","pid":%d,"tid":%d,"ts":%d}`,
					vpn, pid, walkTID, ts)
			}
		}
	}
	clear(t.openTiles)
	clear(t.openWalks)
}

// instant writes a thread-scoped instant event.
func (t *ChromeTrace) instant(name string, pid, tid int, ts clock.Global) {
	t.raw(`{"ph":"i","s":"t","name":%s,"pid":%d,"tid":%d,"ts":%d}`, quote(name), pid, tid, ts)
}

// counter writes a counter sample. Counters are keyed by (pid, name).
func (t *ChromeTrace) counter(name string, pid int, ts clock.Global, value int64) {
	t.raw(`{"ph":"C","name":%s,"pid":%d,"ts":%d,"args":{"v":%d}}`, quote(name), pid, ts, value)
}

// Emit translates one probe event into trace records.
func (t *ChromeTrace) Emit(e Event) {
	switch e.Kind {
	case KindRunStart:
		t.ensureSimTracks()
		t.instant(fmt.Sprintf("run start: %d cores, sharing=%s", e.A, e.Str), simPID, simTID, e.Cycle)
	case KindRunEnd:
		t.closeOpenSpans(e.Cycle)
		t.ensureSimTracks()
		t.instant("run end", simPID, simTID, e.Cycle)
	case KindCoreInfo:
		t.coreNames[e.Core] = e.Str
		t.ensureCoreTracks(e.Core)
	case KindPhase:
		t.ensureSimTracks()
		t.instant(fmt.Sprintf("%s core%d", e.Str, e.Core), simPID, simTID, e.Cycle)
	case KindSkipWindow:
		t.ensureSimTracks()
		t.Complete("skip", simPID, simTID, e.Cycle.Int64(), e.A, nil)

	case KindTileStart:
		pid := t.ensureCoreTracks(e.Core)
		t.openTiles[e.Core]++
		t.raw(`{"ph":"B","name":"L%d tile %d","pid":%d,"tid":%d,"ts":%d}`,
			e.B, e.A, pid, tileTID, e.Cycle)
	case KindTileFinish:
		pid := t.ensureCoreTracks(e.Core)
		t.openTiles[e.Core]--
		t.raw(`{"ph":"E","pid":%d,"tid":%d,"ts":%d}`, pid, tileTID, e.Cycle)
	case KindSPMSwap:
		pid := t.ensureCoreTracks(e.Core)
		t.instant(fmt.Sprintf("spm swap tile %d", e.A), pid, dmaTID, e.Cycle)
	case KindDMAIssue, KindDMAComplete:
		pid := t.ensureCoreTracks(e.Core)
		t.counter("dma inflight", pid, e.Cycle, e.A)
	case KindIterDone:
		pid := t.ensureCoreTracks(e.Core)
		t.instant(fmt.Sprintf("iteration %d done", e.A), pid, dmaTID, e.Cycle)

	case KindMSHRAlloc, KindMSHRFree:
		pid := t.ensurePTWTracks(e.Core)
		t.counter("mshr pending", pid, e.Cycle, e.A)
	case KindWalkStart:
		pid := t.ensurePTWTracks(e.Core)
		if t.openWalks[e.Core] == nil {
			t.openWalks[e.Core] = map[int64]int{}
		}
		t.openWalks[e.Core][e.A]++
		t.raw(`{"ph":"b","cat":"walk","id":"%#x","name":"walk","pid":%d,"tid":%d,"ts":%d}`,
			e.A, pid, walkTID, e.Cycle)
	case KindWalkEnd:
		pid := t.ensurePTWTracks(e.Core)
		if n := t.openWalks[e.Core][e.A] - 1; n > 0 {
			t.openWalks[e.Core][e.A] = n
		} else {
			delete(t.openWalks[e.Core], e.A)
		}
		t.raw(`{"ph":"e","cat":"walk","id":"%#x","name":"walk","pid":%d,"tid":%d,"ts":%d}`,
			e.A, pid, walkTID, e.Cycle)

	case KindDRAMEnqueue:
		t.ensureChannelTrack(e.Unit)
		t.counter(fmt.Sprintf("ch%d queue", e.Unit), dramPID, e.Cycle, e.A)
	case KindDRAMIssue:
		t.ensureChannelTrack(e.Unit)
		t.counter(fmt.Sprintf("ch%d queue", e.Unit), dramPID, e.Cycle, e.A)
	case KindRowHit:
		t.ensureChannelTrack(e.Unit)
		t.instant("row hit", dramPID, int(e.Unit)+1, e.Cycle)
	case KindRowMiss:
		t.ensureChannelTrack(e.Unit)
		t.instant("activate", dramPID, int(e.Unit)+1, e.Cycle)
	case KindRowConflict:
		t.ensureChannelTrack(e.Unit)
		t.instant("row conflict", dramPID, int(e.Unit)+1, e.Cycle)
	case KindRefresh:
		t.ensureChannelTrack(e.Unit)
		t.Complete(fmt.Sprintf("refresh rank%d", e.B), dramPID, int(e.Unit)+1, e.Cycle.Int64(), e.A, nil)

	case KindTLBHit, KindTLBMiss, KindTransfer:
		// Registry-only: too frequent for a useful timeline.
	}
}
