// Command mnputrace captures the simulator's request-level traces: the
// per-window memory-request rate of a workload (Fig 2b), the DRAM
// bandwidth timeline of a pair (Fig 12), or a raw request log in the
// artifact's format.
//
//	mnputrace -mode rate -workload ncf
//	mnputrace -mode bandwidth -workload ds2 -co gpt2
//	mnputrace -mode log -workload ncf -out requests.log -limit 10000
//
// It also exports the unified observability layer: -obs writes a
// Perfetto-loadable Chrome trace of the traced simulation,
// -obs-counters dumps the metric registry, and validate mode checks a
// previously written trace file:
//
//	mnputrace -mode rate -workload ncf -obs trace.json
//	mnputrace -mode validate -in trace.json
//
// Postmortem mode renders a binary flight-recorder dump (captured by
// the serve layer's anomaly watchdog or fetched on demand from
// GET /v1/jobs/{id}/dump) into the same validated Chrome trace plus a
// registry snapshot of the recorded window:
//
//	mnputrace -mode postmortem -in job.dump -obs window.json -obs-counters -
//
// Spans mode renders a distributed trace (the JSON body of
// GET /v1/traces/{id}) into a validated Chrome trace with one process
// per service and one thread per span kind, after printing a
// per-service summary:
//
//	mnputrace -mode spans -in trace-s1.json -obs spans.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"mnpusim/internal/config"
	"mnpusim/internal/experiments"
	"mnpusim/internal/obs"
	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/obs/recorder"
	"mnpusim/internal/serve/api"
	"mnpusim/internal/sim"
	"mnpusim/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mnputrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mnputrace", flag.ContinueOnError)
	var (
		mode     = fs.String("mode", "rate", "trace mode: rate, bandwidth, log, validate, postmortem, or spans")
		workload = fs.String("workload", "ncf", "workload to trace")
		co       = fs.String("co", "gpt2", "second workload (bandwidth mode)")
		scaleF   = fs.String("scale", "tiny", "system scale")
		out      = fs.String("out", "", "output file (log mode; default stdout)")
		limit    = fs.Int64("limit", 100_000, "maximum log records (log mode)")
		obsF     = fs.String("obs", "", "write a Chrome trace-event timeline of the traced simulation (rate and log modes)")
		obsCtr   = fs.String("obs-counters", "", "write metric counters as sorted 'name value' lines to this file, or - for stdout")
		inF      = fs.String("in", "", "trace JSON file to check (validate mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *mode == "log" && *limit < 1 {
		return fmt.Errorf("-limit must be at least 1, got %d", *limit)
	}
	if *mode == "validate" {
		return validateTrace(*inF)
	}
	if *mode == "postmortem" {
		return postmortem(*inF, *obsF, *obsCtr)
	}
	if *mode == "spans" {
		return spans(*inF, *obsF)
	}

	scale, err := config.ParseScale(*scaleF)
	if err != nil {
		return err
	}

	eopts := []experiments.Option{experiments.WithScale(scale)}
	var chrome *obs.ChromeTrace
	if *obsF != "" {
		switch *mode {
		case "rate", "log":
		default:
			return fmt.Errorf("-obs writes one simulation's timeline; supported in rate and log modes only")
		}
		f, err := os.Create(*obsF)
		if err != nil {
			return err
		}
		defer f.Close()
		chrome = obs.NewChromeTrace(f)
		// A timeline of interleaved simulations is meaningless.
		eopts = append(eopts, experiments.WithObs(chrome), experiments.WithWorkers(1))
	}
	var reg *obs.Registry
	if *obsCtr != "" {
		reg = obs.NewRegistry()
		eopts = append(eopts, experiments.WithMetrics(reg))
	}
	r := experiments.NewRunner(eopts...)

	switch *mode {
	case "rate":
		res, err := experiments.Burstiness(r, *workload)
		if err != nil {
			return err
		}
		fmt.Println(res)
		for i, v := range res.Rates {
			fmt.Printf("%d %.5f\n", int64(i)*res.Window, v)
		}
	case "bandwidth":
		res, err := experiments.BandwidthTimeline(r, *workload, *co)
		if err != nil {
			return err
		}
		fmt.Println(res)
		for i := range res.Sum {
			a, b := 0.0, 0.0
			if i < len(res.UtilA) {
				a = res.UtilA[i]
			}
			if i < len(res.UtilB) {
				b = res.UtilB[i]
			}
			fmt.Printf("%d %.4f %.4f %.4f\n", int64(i)*res.Window, a, b, res.Sum[i])
		}
	case "log":
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		bw := bufio.NewWriter(w)
		log := trace.NewRequestLog(bw, *limit)
		base, err := sim.NewWorkloadConfig(scale, sim.Static, *workload)
		if err != nil {
			return err
		}
		cfg := sim.IdealFor(base, 0)
		cfg.Obs = log
		if chrome != nil {
			cfg.Obs = obs.Tee(chrome, log)
		}
		cfg.Metrics = reg
		if _, err := sim.Run(cfg); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d records\n", log.Lines())
	default:
		return fmt.Errorf("unknown mode %q (want rate, bandwidth, log, validate, postmortem, or spans)", *mode)
	}

	if chrome != nil {
		if err := chrome.Close(); err != nil {
			return fmt.Errorf("writing obs trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "obs trace written to %s\n", *obsF)
	}
	if reg != nil {
		if err := reg.Snapshot().WriteFile(*obsCtr); err != nil {
			return err
		}
	}
	return nil
}

// validateTrace checks a Chrome trace file's structural invariants and
// prints a track summary.
func validateTrace(path string) error {
	if path == "" {
		return fmt.Errorf("validate mode needs -in trace.json")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sum, err := obs.ValidateChromeTrace(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: valid Chrome trace: %d events, %d processes, %d tracks\n",
		path, sum.Events, len(sum.ProcessNames), len(sum.ThreadNames))
	for _, n := range sum.ProcessNames {
		fmt.Printf("  process %s\n", n)
	}
	return nil
}

// postmortem decodes a flight-recorder dump, prints a window summary,
// and optionally renders it as a Chrome trace (-obs, validated before
// it hits disk) and a registry snapshot of the window (-obs-counters).
func postmortem(inPath, obsPath, ctrPath string) error {
	if inPath == "" {
		return fmt.Errorf("postmortem mode needs -in job.dump")
	}
	data, err := os.ReadFile(inPath)
	if err != nil {
		return err
	}
	d, err := recorder.Decode(data)
	if err != nil {
		return fmt.Errorf("%s: %w", inPath, err)
	}

	fmt.Printf("%s: flight-recorder dump (%d bytes)\n", inPath, len(data))
	fmt.Printf("  reason:     %s\n", d.Reason)
	fmt.Printf("  window:     %d events recorded, %d evicted, last cycle %d\n",
		d.Events(), d.TotalDropped(), d.LastCycle.Int64())
	fmt.Printf("  layout:     %d cores, %d channels, %d events/ring\n",
		d.Cores, d.Channels, d.Cap)
	for i, name := range d.CoreInfo {
		if name != "" {
			fmt.Printf("  core %d:     %s\n", i, name)
		}
	}

	if obsPath != "" {
		var buf bytes.Buffer
		if err := d.WriteChromeTrace(&buf); err != nil {
			return fmt.Errorf("rendering window: %w", err)
		}
		sum, err := obs.ValidateChromeTrace(buf.Bytes())
		if err != nil {
			return fmt.Errorf("rendered window failed validation: %w", err)
		}
		if err := os.WriteFile(obsPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("  trace:      %s (valid: %d events, %d processes, %d tracks)\n",
			obsPath, sum.Events, len(sum.ProcessNames), len(sum.ThreadNames))
	}
	if ctrPath != "" {
		if err := d.Snapshot().WriteFile(ctrPath); err != nil {
			return err
		}
		if ctrPath != "-" {
			fmt.Printf("  counters:   %s\n", ctrPath)
		}
	}
	return nil
}

// spans decodes a distributed trace (the GET /v1/traces/{id}
// response), prints a per-service summary with parent/child linkage
// checks, and optionally renders it as a Chrome trace (-obs, validated
// before it hits disk). An empty or undecodable trace is an error, so
// CI can gate on this mode.
func spans(inPath, obsPath string) error {
	if inPath == "" {
		return fmt.Errorf("spans mode needs -in trace.json")
	}
	data, err := os.ReadFile(inPath)
	if err != nil {
		return err
	}
	var view api.TraceView
	if err := json.Unmarshal(data, &view); err != nil {
		return fmt.Errorf("%s: decoding trace view: %w", inPath, err)
	}
	if len(view.Spans) == 0 {
		return fmt.Errorf("%s: trace %q has no spans", inPath, view.TraceID)
	}

	ids := make(map[string]bool, len(view.Spans))
	perService := make(map[string]int)
	var minNS, maxNS int64
	for i, sp := range view.Spans {
		ids[sp.SpanID] = true
		perService[sp.Service]++
		if i == 0 || sp.StartUnixNS < minNS {
			minNS = sp.StartUnixNS
		}
		if end := sp.StartUnixNS + sp.DurNS; i == 0 || end > maxNS {
			maxNS = end
		}
	}
	// Orphans (a parent dropped by the bounded span store, or recorded
	// by a caller outside the daemon) are reported, not fatal: a partial
	// trace still tells the story around the gap.
	orphans := 0
	for _, sp := range view.Spans {
		if sp.ParentID != "" && !ids[sp.ParentID] {
			orphans++
		}
	}

	fmt.Printf("%s: trace %s: %d spans, %d service(s), %.3f ms span\n",
		inPath, view.TraceID, len(view.Spans), len(perService), float64(maxNS-minNS)/1e6)
	services := make([]string, 0, len(perService))
	for svc := range perService {
		services = append(services, svc)
	}
	sort.Strings(services)
	for _, svc := range services {
		fmt.Printf("  service %s: %d span(s)\n", svc, perService[svc])
	}
	if orphans > 0 {
		fmt.Printf("  %d orphan span(s) reference parents not in the trace (partial trace)\n", orphans)
	}
	if view.Dropped > 0 {
		fmt.Printf("  %d span(s) dropped by the span store's per-trace cap\n", view.Dropped)
	}

	var buf bytes.Buffer
	if err := dtrace.WriteChromeTrace(&buf, view.Spans); err != nil {
		return fmt.Errorf("rendering spans: %w", err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		return fmt.Errorf("rendered trace failed validation: %w", err)
	}
	if obsPath != "" {
		if err := os.WriteFile(obsPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("  trace:      %s (valid: %d events, %d processes, %d tracks)\n",
			obsPath, sum.Events, len(sum.ProcessNames), len(sum.ThreadNames))
	}
	return nil
}
