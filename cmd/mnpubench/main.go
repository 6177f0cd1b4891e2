// Command mnpubench regenerates the paper's evaluation figures, the
// design-choice ablations and the energy row; it is the evaluation's
// one harness. Each experiment prints the same rows or series the paper
// reports, rendered as text tables and ASCII charts, and -csv writes
// the machine-readable ones. One process shares one experiments.Runner,
// so a configuration that several figures read is simulated once.
//
//	mnpubench -list
//	mnpubench -exp fig4 -scale tiny
//	mnpubench -exp all -scale tiny -csv out/
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"

	"mnpusim/internal/asciiplot"
	"mnpusim/internal/config"
	"mnpusim/internal/dram"
	"mnpusim/internal/experiments"
	"mnpusim/internal/obs"
	"mnpusim/internal/report"
	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

// csvDir, when non-empty, receives machine-readable CSVs alongside the
// text output.
var csvDir string

// writeCSV writes one CSV file into csvDir via fill; it is a no-op when
// -csv is unset.
func writeCSV(name string, fill func(f *os.File) error) error {
	if csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(csvDir, name))
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type experiment struct {
	name  string
	about string
	run   func(r *experiments.Runner) error
}

func table() []experiment {
	mapping := &mappingFigs{}
	return []experiment{
		{"fig2b", "memory-request burstiness of NCF (single core)", runFig2b},
		{"fig4", "dual-core mix performance: Static/+D/+DW/+DWT vs Ideal (36 mixes)", runFig4},
		{"fig5", "quad-core mix performance CDF", runFig5},
		{"fig6", "dual-core mix fairness (Eq. 1)", runFig6},
		{"fig7", "quad-core mix fairness CDF", runFig7},
		{"fig8", "contention sensitivity box plot (+DWT dual-core)", runFig8},
		{"fig9", "DRAM bandwidth partitioning performance (translation removed)", runFig9},
		{"fig10", "DRAM bandwidth partitioning fairness", runFig10},
		{"fig11", "speedup vs DRAM bandwidth (single core)", runFig11},
		{"fig12", "bandwidth-utilization timeline of ds2 and gpt2", runFig12},
		{"fig13", "PTW partitioning performance", runFig13},
		{"fig14", "PTW partitioning fairness", runFig14},
		{"fig15", "page-size speedup, single core", runFig15},
		{"fig16", "page-size performance and fairness, dual and quad core", runFig16},
		{"fig17", "workload-mapping performance CDF (worst/random/predicted/oracle)", mapping.fig17},
		{"fig18", "workload-mapping fairness CDF", mapping.fig18},
		{"ablate", "design-choice ablations (TLB assoc, walkers, double buffering, scheduling, walk model, DMA width, dataflow, walker sharing)", runAblations},
		{"energy", "off-chip energy per bit of sfrnn+gpt2, Static vs +DWT", runEnergy},
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mnpubench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("mnpubench", flag.ContinueOnError)
	var (
		expFlag    = fs.String("exp", "", "experiment to run (see -list), or 'all'")
		listFlag   = fs.Bool("list", false, "list experiments")
		scaleFlag  = fs.String("scale", "tiny", "system scale: tiny, small, or paper")
		quadSample = fs.Int("quad-sample", 40, "quad-core mixes to sample: stride 330/N rounded down, so at least N (40 keeps 42; 0 = all 330); fig16 samples at most 20")
		mapSample  = fs.Int("map-sample", 0, "eight-workload sets to sample: stride 6435/N rounded down, so at least N (0 = all 6435)")
		seedFlag   = fs.Int64("seed", 7, "random seed for predictor training")
		verbose    = fs.Bool("v", false, "log each simulation")
		csvFlag    = fs.String("csv", "", "directory for machine-readable CSV output")
		workers    = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		obsCtr     = fs.String("obs-counters", "", "write the accumulated metric counters of every simulation as sorted 'name value' lines to this file, or - for stdout")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while experiments run")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofAddr != "" {
		go func() {
			fmt.Fprintln(os.Stderr, "pprof:", http.ListenAndServe(*pprofAddr, nil))
		}()
		fmt.Fprintf(os.Stderr, "pprof serving on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *listFlag {
		for _, e := range table() {
			fmt.Printf("  %-7s %s\n", e.name, e.about)
		}
		return nil
	}
	scale, err := config.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	if *expFlag == "" {
		return fmt.Errorf("need -exp <name> or -list")
	}
	valid := []string{"all"}
	for _, e := range table() {
		valid = append(valid, e.name)
	}
	if !slices.Contains(valid, *expFlag) {
		return fmt.Errorf("unknown experiment %q (want one of %s)", *expFlag, strings.Join(valid, ", "))
	}
	eopts := []experiments.Option{
		experiments.WithContext(ctx),
		experiments.WithScale(scale),
		experiments.WithQuadSample(*quadSample),
		experiments.WithMapSample(*mapSample),
		experiments.WithSeed(*seedFlag),
		experiments.WithWorkers(*workers),
	}
	if *verbose {
		eopts = append(eopts, experiments.WithProgress(os.Stderr))
	}
	var reg *obs.Registry
	if *obsCtr != "" {
		reg = obs.NewRegistry()
		eopts = append(eopts, experiments.WithMetrics(reg))
	}
	csvDir = *csvFlag
	r := experiments.NewRunner(eopts...)
	for _, e := range table() {
		if *expFlag != "all" && e.name != *expFlag {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.name, e.about)
		if err := e.run(r); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Println()
	}
	fmt.Printf("(%d simulations)\n", r.Simulations())
	if reg != nil {
		if err := reg.Snapshot().WriteFile(*obsCtr); err != nil {
			return err
		}
	}
	return nil
}

func runFig2b(r *experiments.Runner) error {
	res, err := experiments.Burstiness(r, "ncf")
	if err != nil {
		return err
	}
	fmt.Println(res)
	fmt.Print(asciiplot.Series(res.Rates, res.Peak, 70, 10))
	return writeCSV("fig2b_burstiness.csv", func(f *os.File) error {
		return report.SeriesCSV(f, "cycle", res.Window, res.Rates)
	})
}

func sharingBars(res experiments.SharingResult) {
	for _, lv := range res.Levels {
		per := res.PerWorkloadGeomean(lv)
		fmt.Printf("%-7s overall geomean=%.3f fairness=%.3f | ", lv, res.OverallGeomean(lv), res.OverallFairness(lv))
		for _, w := range workloads.Names() {
			fmt.Printf("%s=%.2f ", w, per[w])
		}
		fmt.Println()
	}
}

// schemeBars charts stat, an overall geomean or fairness, per scheme of
// a partitioning study.
func schemeBars(schemes []string, stat func(scheme string) float64) {
	vals := make([]float64, len(schemes))
	for i, s := range schemes {
		vals[i] = stat(s)
	}
	fmt.Print(asciiplot.BarChart(schemes, vals, true, 40))
}

func runFig4(r *experiments.Runner) error {
	res, err := experiments.DualCoreSharing(r)
	if err != nil {
		return err
	}
	sharingBars(res)
	labels := make([]string, len(res.Levels))
	vals := make([]float64, len(res.Levels))
	for i, lv := range res.Levels {
		labels[i], vals[i] = lv.String(), res.OverallGeomean(lv)
	}
	fmt.Print(asciiplot.BarChart(labels, vals, true, 40))
	return writeCSV("fig4_dual_sharing.csv", func(f *os.File) error {
		return report.SharingCSV(f, res)
	})
}

func runFig5(r *experiments.Runner) error {
	res, err := experiments.QuadCoreSharing(r)
	if err != nil {
		return err
	}
	fmt.Print(res)
	for _, lv := range res.Levels {
		fmt.Printf("CDF of per-mix geomean speedup, %s:\n", lv)
		fmt.Print(asciiplot.CDFChart(res.GeomeanCDFValues(lv), 0, 1, 60, 8))
	}
	return writeCSV("fig5_quad_sharing.csv", func(f *os.File) error {
		return report.SharingCSV(f, res)
	})
}

func runFig6(r *experiments.Runner) error {
	res, err := experiments.DualCoreSharing(r)
	if err != nil {
		return err
	}
	labels := make([]string, len(res.Levels))
	vals := make([]float64, len(res.Levels))
	for i, lv := range res.Levels {
		labels[i], vals[i] = lv.String(), res.OverallFairness(lv)
	}
	fmt.Print(asciiplot.BarChart(labels, vals, true, 40))
	return nil
}

func runFig7(r *experiments.Runner) error {
	res, err := experiments.QuadCoreSharing(r)
	if err != nil {
		return err
	}
	for _, lv := range res.Levels {
		fmt.Printf("CDF of per-mix fairness, %s:\n", lv)
		fmt.Print(asciiplot.CDFChart(res.FairnessCDFValues(lv), 0, 1, 60, 8))
	}
	return nil
}

func runFig8(r *experiments.Runner) error {
	res, err := experiments.ContentionSensitivity(r)
	if err != nil {
		return err
	}
	for _, w := range workloads.Names() {
		fmt.Println(asciiplot.BoxPlot(w, res.Boxes[w], 0, 1, 50))
	}
	return nil
}

func runFig9(r *experiments.Runner) error {
	res, err := experiments.BandwidthPartitioning(r)
	if err != nil {
		return err
	}
	fmt.Print(res)
	var bestLabels []string
	for _, w := range workloads.Names() {
		bestLabels = append(bestLabels, fmt.Sprintf("%s best=%.3f", w, res.StaticBest[w]))
	}
	fmt.Println("static best per workload:", strings.Join(bestLabels, " "))
	schemeBars(res.Levels, res.OverallGeomean)
	return writeCSV("fig9_bw_partitioning.csv", func(f *os.File) error {
		return report.SchemeCSV(f, res.Levels, res.Mixes)
	})
}

func runFig10(r *experiments.Runner) error {
	res, err := experiments.BandwidthPartitioning(r)
	if err != nil {
		return err
	}
	schemeBars(res.Levels, res.OverallFairness)
	return nil
}

func runFig11(r *experiments.Runner) error {
	res, err := experiments.BandwidthSweep(r)
	if err != nil {
		return err
	}
	fmt.Print(res)
	return nil
}

func runFig12(r *experiments.Runner) error {
	res, err := experiments.BandwidthTimeline(r, "ds2", "gpt2")
	if err != nil {
		return err
	}
	fmt.Println(res)
	fmt.Println("ds2 utilization (fraction of dual-core peak):")
	fmt.Print(asciiplot.Series(res.UtilA, 1.2, 70, 8))
	fmt.Println("gpt2 utilization:")
	fmt.Print(asciiplot.Series(res.UtilB, 1.2, 70, 8))
	fmt.Println("sum:")
	fmt.Print(asciiplot.Series(res.Sum, 1.2, 70, 8))
	return nil
}

func runFig13(r *experiments.Runner) error {
	res, err := experiments.PTWPartitioning(r)
	if err != nil {
		return err
	}
	fmt.Print(res)
	schemeBars(res.Levels, res.OverallGeomean)
	return writeCSV("fig13_ptw_partitioning.csv", func(f *os.File) error {
		return report.SchemeCSV(f, res.Levels, res.Mixes)
	})
}

func runFig14(r *experiments.Runner) error {
	res, err := experiments.PTWPartitioning(r)
	if err != nil {
		return err
	}
	schemeBars(res.Levels, res.OverallFairness)
	return nil
}

func runFig15(r *experiments.Runner) error {
	res, err := experiments.PageSizeSingle(r)
	if err != nil {
		return err
	}
	fmt.Print(res)
	return writeCSV("fig15_pagesize_single.csv", func(f *os.File) error {
		cols := []string{}
		for _, p := range res.Pages {
			cols = append(cols, p.String())
		}
		return report.PerWorkloadCSV(f, cols, res.Speedup)
	})
}

func runFig16(r *experiments.Runner) error {
	res, err := experiments.PageSizeMulti(r)
	if err != nil {
		return err
	}
	fmt.Print(res)
	return nil
}

// mappingFigs prints Figs 17 and 18, the two halves of one
// MappingResult, so a run trains the predictor and scores every set
// once. One table() holds one study.
type mappingFigs struct{ res *experiments.MappingResult }

func (m *mappingFigs) study(r *experiments.Runner) (*experiments.MappingResult, error) {
	if m.res == nil {
		res, err := experiments.WorkloadMapping(r)
		if err != nil {
			return nil, err
		}
		m.res = &res
	}
	return m.res, nil
}

func (m *mappingFigs) fig17(r *experiments.Runner) error {
	res, err := m.study(r)
	if err != nil {
		return err
	}
	fmt.Println(res)
	for _, p := range []struct {
		name string
		xs   []float64
	}{
		{"worst", res.WorstPerf}, {"predicted", res.PredictedPerf}, {"oracle", res.OraclePerf},
	} {
		fmt.Printf("CDF of normalized performance, %s:\n", p.name)
		fmt.Print(asciiplot.CDFChart(p.xs, 0.8, 1.2, 60, 8))
	}
	return nil
}

func (m *mappingFigs) fig18(r *experiments.Runner) error {
	res, err := m.study(r)
	if err != nil {
		return err
	}
	for _, p := range []struct {
		name string
		xs   []float64
	}{
		{"worst", res.WorstFairness}, {"predicted", res.PredictedFairness}, {"oracle", res.OracleFairness},
	} {
		fmt.Printf("CDF of normalized fairness, %s:\n", p.name)
		fmt.Print(asciiplot.CDFChart(p.xs, 0.8, 1.2, 60, 8))
	}
	return nil
}

func runAblations(r *experiments.Runner) error {
	for _, f := range []func(*experiments.Runner) (experiments.SweepResult, error){
		experiments.TLBAssociativity,
		experiments.WalkerCount,
		experiments.DoubleBuffering,
		experiments.SchedulingPolicy,
		experiments.WalkMemoryModel,
		experiments.DMAIssueWidth,
		experiments.Dataflows,
		experiments.WalkerStealing,
	} {
		res, err := f(r)
		if err != nil {
			return err
		}
		fmt.Print(res)
	}
	return nil
}

// runEnergy compares off-chip energy per bit between static
// partitioning and full sharing on one mixed pair: sharing finishes
// sooner (less background energy) but interleaved streams cause more
// row activates, and pJ/bit shows the trade-off.
func runEnergy(r *experiments.Runner) error {
	p := dram.DefaultHBM2Energy()
	var perBit [2]float64
	for i, lv := range []sim.Sharing{sim.Static, sim.ShareDWT} {
		res, err := r.Dual("sfrnn", "gpt2", lv)
		if err != nil {
			return err
		}
		perBit[i] = res.DRAM.EnergyPerBit(p, res.GlobalCycles)
	}
	fmt.Printf("sfrnn+gpt2 pJ/bit: static=%.2f +DWT=%.2f\n", perBit[0], perBit[1])
	return nil
}
