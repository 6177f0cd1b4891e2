// Command bench is the repository benchmark. It runs one named workload
// against the simulator in-process (sim.RunContext) or against an
// mnpuserved daemon it starts as a subprocess, checks every result
// against the committed golden digests, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 34, "failed": 0, "metrics": {"op_p50_ms": {"value": 412.7, "unit": "ms"}, ...}}
//
// Run it through run.sh, which builds this command and the daemon from
// source first:
//
//	bash bench/run.sh --workload sweep-dual --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the workload runs untraced and then traced, the metrics are the
// per-layer metrics of the traced run, and the trace is written under
// -out. README.md lists the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mnpusim/internal/metrics"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 20, "how long one run measures")
		trace   = fs.Int("trace", 0, "1 runs the workload untraced and then traced and reports the per-layer metrics")
		outDir  = fs.String("out", filepath.Join(".bench_build", "trace"), "directory the traced run writes its trace and layer files to")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	w, ok := benchWorkloads()[*name]
	if !ok {
		return fmt.Errorf("unknown -workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	golden, err := loadGolden(*name)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		golden:  golden,
		start:   processDaemon(filepath.Join(filepath.Dir(exe), "mnpuserved")),
		workDir: ".bench_build",
	}
	return runWorkload(ctx, stdout, *name, w, e, *trace == 1, *outDir)
}

// runWorkload runs w once untraced and, when traced is set, once more
// traced, then prints the result.
func runWorkload(ctx context.Context, stdout io.Writer, name string, w workload, e *env, traced bool, outDir string) error {
	plain, err := w.run(ctx, e, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host probe median %.4g ms over %d probes (%v on the calibration host): timings scaled by %.4f\n",
		percentileMS(plain.probes, 50), len(plain.probes), probeNominal, hostFactor(plain.probes))
	if !traced {
		return printResult(stdout, name, []*outcome{plain}, endToEnd(plain), endToEndMetrics)
	}
	tr, err := w.run(ctx, e, true)
	if err != nil {
		return err
	}
	tr.layers["bench.trace_overhead_pct"] = 100 * (endToEnd(tr)["op_p50_ms"]/endToEnd(plain)["op_p50_ms"] - 1)
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, e.seed))
	if err := writeTrace(base, tr); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace written to %s.trace.json and %s.layers.json\n", base, base)
	return printResult(stdout, name, []*outcome{plain, tr}, tr.layers, perLayerMetrics)
}

// env is what a workload run needs from its caller.
type env struct {
	seed    int64
	seconds time.Duration
	// golden maps every configuration label the workload can produce to
	// the sha256 of its canonical result JSON.
	golden map[string]string
	// start boots a daemon; the harness test substitutes an in-process
	// server.
	start startFunc
	// workDir holds the serve-warm cache directory while it runs.
	workDir string
}

// outcome is one run of a workload.
type outcome struct {
	// setup holds the set-up samples (config build and tile compile, or
	// daemon start and warm-up); setup_s is their median.
	setup []time.Duration
	// ops holds one latency per completed operation: a simulation for the
	// sweeps, a job (from its scheduled send) for the serve workloads.
	ops       []time.Duration
	opsPerSec float64
	rssMB     float64
	// probes holds the run's host probe times (see hostProbe); the
	// end-to-end timings are scaled by hostFactor(probes).
	probes []time.Duration

	attempted, failed int
	// wrong counts results whose digest is missing from or differs from
	// the golden file; each is also counted in failed.
	wrong int
	// results maps each configuration label run to its result digest.
	results map[string]string

	// layers and spans are filled by traced runs only.
	layers map[string]float64
	spans  traceParts
}

func newOutcome() *outcome {
	return &outcome{results: map[string]string{}}
}

// digest is the sha256 of a result's canonical JSON bytes.
func digest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// check records one result's digest and compares it with the golden one.
func (o *outcome) check(golden map[string]string, label, d string) {
	o.results[label] = d
	if golden[label] != d {
		o.wrong++
		o.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: result digest %s does not match golden %q\n", label, d, golden[label])
	}
}

// fail records one failed operation.
func (o *outcome) fail(what string, err error) {
	o.failed++
	fmt.Fprintf(os.Stderr, "bench: %s: %v\n", what, err)
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEndMetrics are measured with tracing off; every workload reports
// all of them (README.md gives each one's meaning per workload).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// endToEnd computes the end-to-end metrics of a run, its timings scaled
// to the calibration host by the run's host factor.
func endToEnd(o *outcome) map[string]float64 {
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = d.Seconds()
	}
	f := hostFactor(o.probes)
	return map[string]float64{
		"setup_s":     f * metrics.Percentile(setup, 50),
		"op_p50_ms":   f * windowedPercentileMS(o.ops, 50),
		"op_p95_ms":   f * windowedPercentileMS(o.ops, 95),
		"ops_per_s":   o.opsPerSec / f,
		"peak_rss_mb": o.rssMB,
	}
}

// percentileMS is metrics.Percentile over durations, in milliseconds.
func percentileMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / 1e6
	}
	return metrics.Percentile(ms, p)
}

// windowSize is how many operations one percentile window holds: enough
// that a window's p95 has ten operations beyond it.
const windowSize = 200

// windowedPercentileMS splits ops, in the order they were sent, into
// consecutive windows of windowSize (a shorter remainder joins the last
// window), takes the p-th percentile of each, and returns the median
// across windows, so one slow second of the host moves it less than a
// slowdown that lasts the run. Up to 2*windowSize-1 operations are one
// window: a plain percentile.
func windowedPercentileMS(ops []time.Duration, p float64) float64 {
	n := max(len(ops)/windowSize, 1)
	per := make([]float64, n)
	for w := range per {
		hi := (w + 1) * windowSize
		if w == n-1 {
			hi = len(ops)
		}
		per[w] = percentileMS(ops[w*windowSize:hi], p)
	}
	return metrics.Percentile(per, 50)
}

// resultsDigest hashes the sorted (label, digest) pairs of a run, so two
// runs of one seed can be compared with one string.
func resultsDigest(results map[string]string) string {
	labels := make([]string, 0, len(results))
	for l := range results {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	h := sha256.New()
	for _, l := range labels {
		fmt.Fprintf(h, "%s %s\n", l, results[l])
	}
	return hex.EncodeToString(h.Sum(nil))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the human-readable table and the results digest,
// then the one-line JSON result as the last line.
func printResult(w io.Writer, name string, runs []*outcome, values map[string]float64, table []metricDef) error {
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, o := range runs {
		res.Attempted += o.attempted
		res.Failed += o.failed
		res.Correct = res.Correct && o.wrong == 0
		fmt.Fprintf(w, "results_digest %s %s (%d configs)\n", name, resultsDigest(o.results), len(o.results))
	}
	if res.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	for _, m := range table {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.Name, v, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
