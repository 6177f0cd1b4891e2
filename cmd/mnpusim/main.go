// Command mnpusim runs one multi-core NPU simulation, mirroring the
// original simulator's command line and result files.
//
// Two invocation styles are supported.
//
// Artifact style (positional, like the original):
//
//	mnpusim <arch_list> <network_list> <dram_config> <npumem_config> <result_dir> <misc_config>
//
// Flag style (built-in benchmarks and presets):
//
//	mnpusim -workloads res,gpt2 -scale tiny -sharing +dwt -out result_dir
//
// The result directory receives, per core, the avg_cycle,
// memory_footprint, execution_cycle, and utilization summaries the
// original writes, plus a run summary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"mnpusim/internal/asciiplot"
	"mnpusim/internal/config"
	"mnpusim/internal/obs"
	"mnpusim/internal/obs/attrib"
	"mnpusim/internal/obs/hostprof"
	"mnpusim/internal/report"
	"mnpusim/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mnpusim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("mnpusim", flag.ContinueOnError)
	var (
		workloadsFlag = fs.String("workloads", "", "comma-separated benchmark names, one per core (e.g. res,gpt2)")
		scaleFlag     = fs.String("scale", "tiny", "system scale: tiny, small, or paper")
		sharingFlag   = fs.String("sharing", "+dwt", "resource sharing level: static, +d, +dw, +dwt")
		noXlat        = fs.Bool("no-translation", false, "remove address translation (bandwidth isolation mode)")
		outFlag       = fs.String("out", "", "result directory (omit to print to stdout only)")
		idealFlag     = fs.Bool("ideal", false, "also run each workload on the Ideal baseline and report speedups")
		attrFlag      = fs.Bool("attr", false, "attribute each core's wall cycles to stall buckets (compute, dram_queue, row_conflict, transfer, ptw_queue, walk, idle); prints a stacked-bar view and, with -out, writes attribution.csv/.json")
		obsFlag       = fs.String("obs", "", "write a Chrome trace-event timeline (Perfetto-loadable JSON) to this file")
		obsCounters   = fs.String("obs-counters", "", "write the run's metric counters as sorted 'name value' lines to this file, or - for stdout")
		jsonFlag      = fs.Bool("json", false, "write the result as canonical JSON to stdout instead of the text summary (byte-identical to the serving daemon's result endpoint)")
		timeoutFlag   = fs.Duration("timeout", 0, "abort the simulation after this wall-clock duration (0 = no limit)")
		hostprofFlag  = fs.Bool("hostprof", false, "profile the simulator's own wall time (kernel scheduling vs component ticks vs obs) and print the breakdown to stderr; simulation results are byte-identical on or off")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: mnpusim -workloads a,b [-scale s] [-sharing l] [-out dir]")
		fmt.Fprintln(fs.Output(), "   or: mnpusim <arch_list> <net_list> <dram_config> <npumem_config> <result_dir> <misc_config>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg sim.Config
	out := *outFlag
	switch {
	case *workloadsFlag != "":
		scale, err := config.ParseScale(*scaleFlag)
		if err != nil {
			return err
		}
		sharing, err := config.ParseSharing(*sharingFlag)
		if err != nil {
			return err
		}
		names := strings.Split(*workloadsFlag, ",")
		cfg, err = sim.NewWorkloadConfig(scale, sharing, names...)
		if err != nil {
			return err
		}
		cfg.NoTranslation = *noXlat
	case fs.NArg() == 6:
		a := fs.Args()
		var err error
		cfg, err = config.LoadSystem(a[0], a[1], a[2], a[3], a[5])
		if err != nil {
			return err
		}
		out = a[4]
	default:
		fs.Usage()
		return fmt.Errorf("need -workloads or six positional config arguments")
	}

	var chrome *obs.ChromeTrace
	if *obsFlag != "" {
		f, err := os.Create(*obsFlag)
		if err != nil {
			return err
		}
		defer f.Close()
		chrome = obs.NewChromeTrace(f)
		cfg.Obs = chrome
	}
	if *obsCounters != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	var attrEng *attrib.Engine
	if *attrFlag {
		attrEng = sim.NewAttribution(cfg)
		cfg.Obs = obs.Tee(cfg.Obs, attrEng)
	}
	if *hostprofFlag {
		cfg.HostProf = hostprof.New()
	}

	if *timeoutFlag > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeoutFlag)
		defer cancel()
	}
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return err
	}
	if cfg.HostProf != nil {
		// Stderr keeps -json stdout byte-pure; wall times vary run to run,
		// the result bytes must not.
		if err := cfg.HostProf.WriteBreakdown(os.Stderr); err != nil {
			return err
		}
	}
	if chrome != nil {
		if err := chrome.Close(); err != nil {
			return fmt.Errorf("writing obs trace: %w", err)
		}
		fmt.Printf("obs trace written to %s\n", *obsFlag)
	}
	if cfg.Metrics != nil {
		if err := cfg.Metrics.Snapshot().WriteFile(*obsCounters); err != nil {
			return err
		}
	}

	var ideal []sim.CoreResult
	if *idealFlag {
		if ideal, err = sim.RunIdealContext(ctx, cfg); err != nil {
			return err
		}
	}
	if *jsonFlag {
		// Exactly json.Marshal(res), no trailing newline: the same bytes
		// internal/serve caches and serves, so the two can be compared
		// with cmp(1).
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(b); err != nil {
			return err
		}
	} else {
		printSummary(cfg, res, ideal)
	}
	if attrEng != nil {
		if err := reportAttribution(attrEng, out, *jsonFlag); err != nil {
			return err
		}
	}
	if out != "" {
		if err := writeResults(out, cfg, res); err != nil {
			return err
		}
		fmt.Printf("results written to %s/result\n", out)
	}
	return nil
}

// reportAttribution prints the stall-cycle breakdown as a stacked-bar
// view (on stderr under -json, keeping stdout byte-pure) and, with an
// output directory, writes attribution.csv and attribution.json next to
// the artifact result files.
func reportAttribution(eng *attrib.Engine, out string, jsonMode bool) error {
	if !eng.Finalized() {
		return fmt.Errorf("attribution incomplete: simulation ended before every core finished its first inference")
	}
	rep := eng.Report()
	if err := rep.Validate(); err != nil {
		return fmt.Errorf("attribution: %w", err)
	}
	w := os.Stdout
	if jsonMode {
		w = os.Stderr
	}
	labels := make([]string, len(rep.Cores))
	rows := make([][]float64, len(rep.Cores))
	for i, c := range rep.Cores {
		labels[i] = fmt.Sprintf("core%d %s", c.Core, c.Net)
		buckets := c.Buckets()
		rows[i] = make([]float64, len(buckets))
		for b, v := range buckets {
			rows[i][b] = float64(v)
		}
	}
	fmt.Fprintln(w, "stall-cycle attribution (each bar = 100% of that core's cycles):")
	fmt.Fprint(w, asciiplot.StackedBar(labels, attrib.BucketNames(), rows, 60))
	for _, c := range rep.Cores {
		fmt.Fprintf(w, "core %d %-8s total=%d", c.Core, c.Net, c.TotalCycles)
		for b := attrib.Bucket(0); b < attrib.NumBuckets; b++ {
			fmt.Fprintf(w, " %s=%.1f%%", attrib.BucketNames()[b], 100*c.Fraction(b))
		}
		fmt.Fprintln(w)
	}
	if out == "" {
		return nil
	}
	rdir := filepath.Join(out, "result")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return err
	}
	var csv strings.Builder
	if err := report.AttributionCSV(&csv, rep); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(rdir, "attribution.csv"), []byte(csv.String()), 0o644); err != nil {
		return err
	}
	var js strings.Builder
	if err := report.WriteJSON(&js, rep); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(rdir, "attribution.json"), []byte(js.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "attribution written to %s/attribution.{csv,json}\n", rdir)
	return nil
}

func printSummary(cfg sim.Config, res sim.Result, ideal []sim.CoreResult) {
	fmt.Printf("%s | %d cores | sharing=%s | %d global cycles\n",
		cfg.DRAM.Name, cfg.Cores(), cfg.Sharing, res.GlobalCycles)
	for i, c := range res.Cores {
		fmt.Printf("core %d %-8s avg_cycle=%-10d util=%.3f footprint=%s traffic=%s tlb_hit=%.3f walks=%d\n",
			i, c.Net, c.Cycles, c.Utilization, human(c.FootprintBytes), human(c.TrafficBytes), c.TLBHitRate, c.MMU.Walks)
		if ideal != nil {
			fmt.Printf("       speedup vs Ideal: %.3f (ideal avg_cycle=%d)\n",
				float64(ideal[i].Cycles)/float64(c.Cycles), ideal[i].Cycles)
		}
	}
	t := res.DRAM.Totals()
	fmt.Printf("dram: reads=%d writes=%d row_hit=%.2f bytes=%s refreshes=%d\n",
		t.Reads, t.Writes, res.DRAM.RowHitRate(), human(t.BytesMoved), t.Refreshes)
}

// writeResults mirrors the original simulator's result directory: one
// summary file per output kind per core.
func writeResults(dir string, cfg sim.Config, res sim.Result) error {
	rdir := filepath.Join(dir, "result")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return err
	}
	for i, c := range res.Cores {
		tag := fmt.Sprintf("arch_%s%d_%s%d", cfg.Arch[i].Name, i, c.Net, i)
		files := map[string]string{
			"avg_cycle_" + tag + ".txt":        fmt.Sprintf("%d\n", c.Cycles),
			"memory_footprint_" + tag + ".txt": fmt.Sprintf("%d\n", c.FootprintBytes),
			"utilization_" + tag + ".txt":      fmt.Sprintf("%.6f\n", c.Utilization),
		}
		var layers strings.Builder
		for l := 0; l < len(cfg.Nets[i].Layers); l++ {
			if end, ok := c.LayerEndCycles[l]; ok {
				fmt.Fprintf(&layers, "%d %s %d\n", l, cfg.Nets[i].Layers[l].Name, end)
			}
		}
		files["execution_cycle_"+tag+".txt"] = layers.String()
		for name, content := range files {
			if err := os.WriteFile(filepath.Join(rdir, name), []byte(content), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

func human(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
