// Package trace provides the instrumentation the original simulator
// emits as log files: per-window memory-request rates (the burstiness
// plot of Fig. 2b), per-window DRAM bandwidth utilization (the timeline
// of Fig. 12), and the artifact's request log of DMA issues.
//
// The recorders and the log are thin consumers of the internal/obs
// probe stream: each implements obs.Sink, so sim.Config.Obs is the one
// instrumentation path and they are just backends over it.
package trace

import (
	"fmt"
	"io"

	"mnpusim/internal/mem"
	"mnpusim/internal/obs"
)

// RateRecorder counts events per fixed-size cycle window; the paper's
// Fig. 2(b) plots the moving average of memory requests over 1000-cycle
// windows.
type RateRecorder struct {
	window int64
	counts []int64
}

// NewRateRecorder creates a recorder with the given window size in
// cycles.
func NewRateRecorder(window int64) (*RateRecorder, error) {
	if window <= 0 {
		return nil, fmt.Errorf("trace: rate window must be positive, got %d", window)
	}
	return &RateRecorder{window: window}, nil
}

// Emit implements obs.Sink: the recorder counts DMA request issues from
// the probe stream, the Fig. 2b burstiness signal. All other event
// kinds are ignored.
func (r *RateRecorder) Emit(e obs.Event) {
	if e.Kind == obs.KindDMAIssue {
		r.Add(e.Cycle.Int64(), 1)
	}
}

// Add counts weight events at the given cycle.
func (r *RateRecorder) Add(cycle, weight int64) {
	if cycle < 0 {
		return
	}
	w := cycle / r.window
	for int64(len(r.counts)) <= w {
		r.counts = append(r.counts, 0)
	}
	r.counts[w] += weight
}

// Window returns the window size.
func (r *RateRecorder) Window() int64 { return r.window }

// Rates returns events per cycle for each window.
func (r *RateRecorder) Rates() []float64 {
	out := make([]float64, len(r.counts))
	for i, c := range r.counts {
		out[i] = float64(c) / float64(r.window)
	}
	return out
}

// MovingAverage returns the k-window moving average of the per-window
// rates (k>=1).
func (r *RateRecorder) MovingAverage(k int) []float64 {
	rates := r.Rates()
	if k <= 1 || len(rates) == 0 {
		return rates
	}
	out := make([]float64, len(rates))
	sum := 0.0
	for i, v := range rates {
		sum += v
		if i >= k {
			sum -= rates[i-k]
		}
		n := min(i+1, k)
		out[i] = sum / float64(n)
	}
	return out
}

// BandwidthRecorder accumulates bytes transferred per window, per core,
// for the Fig. 12 utilization timeline. Core index -1 aggregates all.
type BandwidthRecorder struct {
	window int64
	cores  int
	bytes  [][]int64 // [core][window]
}

// NewBandwidthRecorder creates a recorder for the given core count.
func NewBandwidthRecorder(cores int, window int64) (*BandwidthRecorder, error) {
	if window <= 0 {
		return nil, fmt.Errorf("trace: bandwidth window must be positive, got %d", window)
	}
	if cores <= 0 {
		return nil, fmt.Errorf("trace: bandwidth recorder needs at least one core, got %d", cores)
	}
	return &BandwidthRecorder{window: window, cores: cores, bytes: make([][]int64, cores)}, nil
}

// Emit implements obs.Sink: the recorder accumulates completed-transfer
// events from the probe stream, the Fig. 12 bandwidth signal. All other
// event kinds are ignored.
func (b *BandwidthRecorder) Emit(e obs.Event) {
	if e.Kind == obs.KindTransfer {
		b.Record(e.Cycle.Int64(), int(e.Core), int(e.A))
	}
}

// Record attributes a completed transfer of bytes to core at cycle now;
// Emit feeds it the probe stream's transfers. Transfers of cores outside
// the recorder's range, or at negative cycles, are dropped.
func (b *BandwidthRecorder) Record(now int64, core, bytes int) {
	if core < 0 || core >= b.cores || now < 0 {
		return
	}
	w := now / b.window
	for int64(len(b.bytes[core])) <= w {
		b.bytes[core] = append(b.bytes[core], 0)
	}
	b.bytes[core][w] += int64(bytes)
}

// Utilization returns per-window bandwidth of one core as a fraction of
// peakBytesPerCycle (the paper normalizes to the 256 GB/s peak).
func (b *BandwidthRecorder) Utilization(core int, peakBytesPerCycle float64) []float64 {
	if core < 0 || core >= b.cores {
		return nil
	}
	out := make([]float64, len(b.bytes[core]))
	for i, v := range b.bytes[core] {
		out[i] = float64(v) / (peakBytesPerCycle * float64(b.window))
	}
	return out
}

// RequestLog writes the artifact's request log, one record per DMA
// request issue: cycle, virtual address, NPU index, and class+kind
// ("DR" or "DW"). It is an obs.Sink over the KindDMAIssue probe
// events and stops after limit records.
type RequestLog struct {
	w     io.Writer
	limit int64
	lines int64
}

// NewRequestLog creates a log writing at most limit records to w.
// Write errors are left to w: a bufio.Writer keeps the first and
// reports it on Flush.
func NewRequestLog(w io.Writer, limit int64) *RequestLog {
	return &RequestLog{w: w, limit: limit}
}

// Emit implements obs.Sink: it writes one record per DMA issue until
// the limit. All other event kinds are ignored.
func (l *RequestLog) Emit(e obs.Event) {
	if e.Kind != obs.KindDMAIssue || l.lines >= l.limit {
		return
	}
	l.lines++
	kind := mem.Read
	if e.Unit == 1 {
		kind = mem.Write
	}
	fmt.Fprintf(l.w, "%d %#x %d %s%s\n", e.Cycle, uint64(e.B), e.Core, mem.Data, kind)
}

// Lines returns the number of records written.
func (l *RequestLog) Lines() int64 { return l.lines }
