package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mnpusim/internal/metrics"
	"mnpusim/internal/obs"
	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/obs/hostprof"
	"mnpusim/internal/serve/api"
)

// perLayerMetrics are reported by a traced run. Layers are named after the
// repository's modules. Simulator host times and counts are per pass of
// the sweep (a serve run is one pass); a layer a workload does not
// exercise reads 0. README.md maps each to the end-to-end metric it
// should move.
var perLayerMetrics = []metricDef{
	{"tile.build_s", "s"},
	{"sim.run_s", "s"},
	{"sim.global_cycles", "cycles"},
	{"sim.component_ticks", "count"},
	{"sim.heap_pops", "count"},
	{"sim.loop_iters", "count"},
	{"sim.mcycles_per_s", "Mcycles/s"},
	{"sim.kernel_heap_host_s", "s"},
	{"sim.unattributed_host_s", "s"},
	{"sim.host_ns_per_component_tick", "ns"},
	{"mmu.tick_host_s", "s"},
	{"mmu.host_ns_per_dram_enqueue", "ns"},
	{"mmu.tlb_hits", "count"},
	{"mmu.tlb_misses", "count"},
	{"mmu.tlb_hit_rate", "ratio"},
	{"mmu.walks", "count"},
	{"mmu.walk_cycles", "cycles"},
	{"dram.tick_host_s", "s"},
	{"dram.enqueued", "count"},
	{"dram.cas_reads", "count"},
	{"dram.cas_writes", "count"},
	{"dram.row_hits", "count"},
	{"dram.row_misses", "count"},
	{"dram.row_conflicts", "count"},
	{"dram.row_hit_rate", "ratio"},
	{"dram.bytes_completed", "B"},
	{"npu.tick_host_s", "s"},
	{"npu.dma_issued", "count"},
	{"npu.tiles_finished", "count"},
	{"obs.emit_host_s", "s"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p95_ms", "ms"},
	{"serve.sim_run_p50_ms", "ms"},
	{"serve.sim_run_p95_ms", "ms"},
	{"serve.sims_per_distinct_config", "ratio"},
	{"serve.sim_busy_frac", "ratio"},
	{"serve.http_p50_ms", "ms"},
	{"serve.http_p99_ms", "ms"},
	{"serve.cache_lookup_memory_p50_us", "us"},
	{"serve.cache_lookup_disk_p50_us", "us"},
	{"serve.cache_hit_rate", "ratio"},
	{"client.submit_p50_ms", "ms"},
	{"client.submit_p99_ms", "ms"},
	{"client.result_p50_ms", "ms"},
	{"client.polls_per_job", "count"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.pass_s", "s"},
	{"bench.host_probe_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// registryCounts are the simulator counters a run folds into its
// obs.Registry, summed over their per-core and per-channel series.
var registryCounts = []string{
	"sim.global_cycles", "sim.component_ticks", "sim.heap_pops", "sim.loop_iters",
	"mmu.tlb_hits", "mmu.tlb_misses", "mmu.walks",
	"dram.enqueued", "dram.cas_reads", "dram.cas_writes",
	"dram.row_hits", "dram.row_misses", "dram.row_conflicts", "dram.bytes_completed",
	"npu.dma_issued", "npu.tiles_finished",
}

// addRegistry adds a registry's simulator counters to the layer sums.
func addRegistry(sums map[string]float64, reg map[string]int64) {
	for _, name := range registryCounts {
		sums[name] += float64(series(reg, name, ""))
	}
	sums["mmu.walk_cycles"] += float64(series(reg, "mmu.walk_cycles", "sum"))
}

// addHostProf adds one simulation's wall time and host profile to the
// layer sums. SecObs overlaps the other sections, so it is reported
// beside them, not subtracted.
func addHostProf(sums map[string]float64, run time.Duration, hp *hostprof.Profiler) {
	sums["sim.run_s"] += run.Seconds()
	sums["sim.kernel_heap_host_s"] += float64(hp.NS(hostprof.SecKernelHeap)) / 1e9
	sums["mmu.tick_host_s"] += float64(hp.NS(hostprof.SecTickMMU)) / 1e9
	sums["dram.tick_host_s"] += float64(hp.NS(hostprof.SecTickDRAM)) / 1e9
	sums["npu.tick_host_s"] += float64(hp.NS(hostprof.SecTickCore)) / 1e9
	sums["obs.emit_host_s"] += float64(hp.NS(hostprof.SecObs)) / 1e9
}

// finishLayers derives the ratio metrics from the sums and fills every
// metric the run did not measure with 0. sim.unattributed_host_s is the
// part of sim.run_s no host-profile section covers: RunContext's build
// phase and the loop bookkeeping between sections.
func finishLayers(s map[string]float64) map[string]float64 {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	if s["sim.run_s"] > 0 {
		s["sim.unattributed_host_s"] = s["sim.run_s"] - s["sim.kernel_heap_host_s"] - s["mmu.tick_host_s"] - s["dram.tick_host_s"] - s["npu.tick_host_s"]
		s["sim.mcycles_per_s"] = ratio(s["sim.global_cycles"]/1e6, s["sim.run_s"])
		s["sim.host_ns_per_component_tick"] = ratio(s["sim.run_s"]*1e9, s["sim.component_ticks"])
		s["mmu.host_ns_per_dram_enqueue"] = ratio(s["mmu.tick_host_s"]*1e9, s["dram.enqueued"])
	}
	s["mmu.tlb_hit_rate"] = ratio(s["mmu.tlb_hits"], s["mmu.tlb_hits"]+s["mmu.tlb_misses"])
	s["dram.row_hit_rate"] = ratio(s["dram.row_hits"], s["dram.row_hits"]+s["dram.row_misses"]+s["dram.row_conflicts"])
	for _, m := range perLayerMetrics {
		if _, ok := s[m.Name]; !ok {
			s[m.Name] = 0
		}
	}
	return s
}

func snapshotMap(snap obs.Snapshot) map[string]int64 {
	m := make(map[string]int64, len(snap))
	for _, e := range snap {
		m[e.Name] = e.Value
	}
	return m
}

// series sums a registry metric over its series: name itself and every
// name.core<N> or name.ch<N>, each with a ".<field>" suffix when field is
// set (a histogram's "sum" or "count").
func series(reg map[string]int64, name, field string) int64 {
	var sum int64
	for k, v := range reg {
		if field != "" {
			var ok bool
			if k, ok = strings.CutSuffix(k, "."+field); !ok {
				continue
			}
		}
		rest, ok := strings.CutPrefix(k, name)
		if ok && (rest == "" || indexed(rest, ".core") || indexed(rest, ".ch")) {
			sum += v
		}
	}
	return sum
}

func indexed(s, prefix string) bool {
	n, ok := strings.CutPrefix(s, prefix)
	return ok && n != "" && strings.Trim(n, "0123456789") == ""
}

// newTracer returns the bench's span recorder for a traced run, and nil
// ones (which record nothing) otherwise.
func newTracer(traced bool) (*dtrace.Tracer, *dtrace.Store) {
	if !traced {
		return nil, nil
	}
	store := dtrace.NewStore(1, 1<<20)
	return dtrace.NewTracer("bench", store), store
}

// traceParts is a traced run's trace: the bench's spans and, for the
// serve workloads, the daemon's spans joined to the same trace.
type traceParts struct {
	traceID string
	spans   []dtrace.Span
}

// spanStat is one span name's total and self time; self time is the
// span's duration minus the part of it its child spans cover.
type spanStat struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes aggregates spans by "service/name".
func selfTimes(spans []dtrace.Span) map[string]*spanStat {
	children := map[string][]dtrace.Span{}
	for _, sp := range spans {
		if sp.ParentID != "" {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		}
	}
	out := map[string]*spanStat{}
	for _, sp := range spans {
		st := out[sp.Service+"/"+sp.Name]
		if st == nil {
			st = &spanStat{}
			out[sp.Service+"/"+sp.Name] = st
		}
		st.Count++
		st.TotalS += float64(sp.DurNS) / 1e9
		st.SelfS += float64(sp.DurNS-covered(sp, children[sp.SpanID])) / 1e9
	}
	return out
}

// covered returns how many nanoseconds of parent the union of kids
// covers.
func covered(parent dtrace.Span, kids []dtrace.Span) int64 {
	lo, hi := parent.StartUnixNS, parent.StartUnixNS+parent.DurNS
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartUnixNS, lo), min(k.StartUnixNS+k.DurNS, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.a < v.b {
			total += v.b - v.a
			end = v.b
		}
	}
	return total
}

// writeTrace writes a traced run's spans as one api.TraceView (the shape
// `mnputrace -mode spans` reads), after checking it renders to a valid
// Chrome trace the way that mode does, and the per-layer metrics with
// per-span self times beside it.
func writeTrace(base string, o *outcome) error {
	if len(o.spans.spans) == 0 {
		return fmt.Errorf("traced run recorded no spans")
	}
	view := api.TraceView{TraceID: o.spans.traceID, Spans: o.spans.spans}
	sort.Slice(view.Spans, func(i, j int) bool {
		a, b := view.Spans[i], view.Spans[j]
		if a.StartUnixNS != b.StartUnixNS {
			return a.StartUnixNS < b.StartUnixNS
		}
		return a.SpanID < b.SpanID
	})
	if err := validateSpans(view); err != nil {
		return err
	}
	layers := struct {
		TraceID string                `json:"trace_id"`
		Metrics map[string]jsonMetric `json:"metrics"`
		Spans   map[string]*spanStat  `json:"spans"`
	}{view.TraceID, map[string]jsonMetric{}, selfTimes(view.Spans)}
	for _, m := range perLayerMetrics {
		layers.Metrics[m.Name] = jsonMetric{Value: o.layers[m.Name], Unit: m.Unit}
	}
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	for suffix, v := range map[string]any{".trace.json": view, ".layers.json": layers} {
		b, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(base+suffix, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// validateSpans applies the checks `mnputrace -mode spans` makes: the
// view has spans and renders to a Chrome trace that validates.
func validateSpans(view api.TraceView) error {
	if len(view.Spans) == 0 {
		return fmt.Errorf("trace %q has no spans", view.TraceID)
	}
	var buf bytes.Buffer
	if err := dtrace.WriteChromeTrace(&buf, view.Spans); err != nil {
		return fmt.Errorf("rendering spans: %w", err)
	}
	if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		return fmt.Errorf("rendered trace failed validation: %w", err)
	}
	return nil
}

// peakRSSMB reads a process's peak resident set size (VmHWM) from
// /proc/<pid>/status, in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuSeconds reads a process's user plus system CPU time from
// /proc/<pid>/stat, whose times are in clock ticks of 1/100 s (USER_HZ on
// Linux).
func cpuSeconds(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3;
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	var ticks float64
	for _, s := range f[11:13] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%s/stat: %w", pid, err)
		}
		ticks += v
	}
	return ticks / 100, nil
}

// spanPercentileMS returns the p-th percentile duration, in
// milliseconds, of the spans keep selects (0 when none match).
func spanPercentileMS(spans []dtrace.Span, p float64, keep func(dtrace.Span) bool) float64 {
	var ms []float64
	for _, sp := range spans {
		if keep(sp) {
			ms = append(ms, float64(sp.DurNS)/1e6)
		}
	}
	if len(ms) == 0 {
		return 0
	}
	return metrics.Percentile(ms, p)
}
