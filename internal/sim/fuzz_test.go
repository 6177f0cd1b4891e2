package sim

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/obs"
	"mnpusim/internal/workloads"
)

// fuzzMaxCycles caps a fuzzed run, so that one input costs at most
// about a second under both loops whatever it decodes to. Most two-core
// mixes of the cheaper workloads finish inside it.
const fuzzMaxCycles clock.Global = 600_000

// fuzzClocks are the per-core clocks a fuzzed system draws from: slower
// than DRAM, an incommensurate ratio, equal, and faster (a 2 GHz core
// has 8 DMA slots per global cycle against 4 TLB ports, so its
// submissions meet port refusals).
var fuzzClocks = []clock.Hz{500 * clock.MHz, clock.GHz / 3 * 2, clock.GHz, 2 * clock.GHz}

// decodeFuzzConfig turns fuzz input into a small tiny-scale system.
// Missing bytes read as zero. Byte by byte:
//
//	0     cores (1 + b%4)
//	1     sharing level (the four levels, and Ideal for one core)
//	2     MaxPendingWalks (1 + b%16)
//	3     walkers per core (1 + b%4)
//	4, 5  TLB entries per core (8 << b%4) and associativity (1 << b%4)
//	6     flags: DRAM-backed walks, DWS stealing, no translation, staggered starts
//	7...  per core: workload, clock, start cycle (b*64, if staggered)
func decodeFuzzConfig(data []byte) (Config, error) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%4
	levels := Levels()
	if n == 1 {
		levels = append(levels, Ideal)
	}
	level := levels[next()%len(levels)]
	pending := 1 + next()%16
	walkers := 1 + next()%4
	entries := 8 << (next() % 4)
	assoc := 1 << (next() % 4)
	flags := next()

	names := workloads.Names()
	picked := make([]string, n)
	freqs := make([]clock.Hz, n)
	starts := make([]clock.Global, n)
	for i := range picked {
		picked[i] = names[next()%len(names)]
		freqs[i] = fuzzClocks[next()%len(fuzzClocks)]
		starts[i] = clock.Global(next()) * 64
	}
	cfg, err := NewWorkloadConfig(workloads.ScaleTiny, level, picked...)
	if err != nil {
		return Config{}, err
	}
	for i := range cfg.Arch {
		cfg.Arch[i].FreqHz = freqs[i]
	}
	cfg.MaxPendingWalks = pending
	cfg.PTWPerCore = walkers
	cfg.TLBEntriesPerCore = entries
	cfg.TLBAssoc = assoc
	cfg.DRAMBackedWalks = flags&1 != 0
	cfg.DWSWalkerStealing = flags&2 != 0
	cfg.NoTranslation = flags&4 != 0
	if flags&8 != 0 {
		cfg.StartCycles = starts
	}
	cfg.MaxGlobalCycles = fuzzMaxCycles
	return cfg, nil
}

// FuzzKernelMatchesTick is TestKernelEventMatchesTick over decoded
// random systems (see decodeFuzzConfig): both loops must never wedge,
// must agree on the error of a run cut short, and must otherwise
// produce an identical Result and probe stream. The streams are
// compared by hash, since a four-core run emits millions of events, and
// captured in full only to report a divergence. The seed corpus under
// testdata/fuzz/FuzzKernelMatchesTick covers four cores, a 2 GHz core
// meeting port refusals, a single-entry MSHR, DRAM-backed walks with
// DWS stealing, staggered starts at mixed clocks, and a run cut short.
func FuzzKernelMatchesTick(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := decodeFuzzConfig(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		type run struct {
			res    Result
			stream uint64
			err    error
		}
		do := func(l Loop) run {
			h := fnv.New64a()
			var buf [8]byte
			c := cfg
			c.Obs = obs.Func(func(e obs.Event) {
				for _, v := range [...]int64{e.Cycle.Int64(), int64(e.Kind), int64(e.Core), int64(e.Unit), e.A, e.B, int64(len(e.Str))} {
					binary.LittleEndian.PutUint64(buf[:], uint64(v))
					h.Write(buf[:])
				}
				h.Write([]byte(e.Str))
			})
			var r run
			r.res, r.err = l.Run(context.Background(), c)
			if r.err != nil && strings.Contains(r.err.Error(), "wedged") {
				t.Fatalf("%s loop: %v", l.Name, r.err)
			}
			r.stream = h.Sum64()
			return r
		}
		tick, event := do(Loops[0]), do(Loops[1])
		if (tick.err == nil) != (event.err == nil) || (tick.err != nil && tick.err.Error() != event.err.Error()) {
			t.Fatalf("errors differ: tick %v, event %v", tick.err, event.err)
		}
		if !reflect.DeepEqual(tick.res, event.res) {
			t.Errorf("event kernel changed the result:\ntick:  %+v\nevent: %+v", tick.res, event.res)
		}
		if tick.stream != event.stream {
			capture := func(l Loop) []obs.Event {
				var events []obs.Event
				c := cfg
				c.Obs = obs.Func(func(e obs.Event) { events = append(events, e) })
				l.Run(context.Background(), c) // its error was compared above
				return events
			}
			t.Errorf("event kernel changed the probe stream: %s", diffEvents(capture(Loops[0]), capture(Loops[1])))
		}
	})
}
