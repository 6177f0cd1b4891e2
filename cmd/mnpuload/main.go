// Command mnpuload is the serving-layer load harness: it replays mixed
// simulation traffic against one or more mnpuserved daemons through the
// typed client and reports latency percentiles (client-observed and
// server-side via the Server-Timing header), throughput, and cache-hit
// rate.
//
//	mnpuload -addr http://localhost:8080 -rounds 3 -concurrency 8
//
// The request population is an experiment grid — the same mix x level
// expansion POST /v1/sweeps performs — replayed -rounds times, so every
// round after the first should be answered from the daemon's
// content-addressed cache. The run summary is written as JSON to -out
// (BENCH_serve.json by convention) and printed to stdout.
//
// With -one it instead submits a single job, waits, and prints the
// canonical result bytes — the smoke scripts' building block.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"mnpusim/internal/experiments"
	"mnpusim/internal/serve/api"
	"mnpusim/internal/serve/client"
	"mnpusim/internal/workloads"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mnpuload:", err)
		os.Exit(1)
	}
}

// latencyStats summarizes a sorted latency sample.
type latencyStats struct {
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// benchReport is the BENCH_serve.json document.
type benchReport struct {
	Addr          string       `json:"addr"`
	Requests      int          `json:"requests"`
	Failed        int          `json:"failed"`
	Concurrency   int          `json:"concurrency"`
	Rounds        int          `json:"rounds"`
	Population    int          `json:"population"`
	DurationMs    float64      `json:"duration_ms"`
	ThroughputRPS float64      `json:"throughput_rps"`
	Latency       latencyStats `json:"latency"`
	// ServerLatency summarizes the daemon's own Server-Timing header
	// across every response of the run (submits and polls alike) — the
	// in-handler time, with the client, network, and queue-poll cadence
	// stripped away.
	ServerLatency latencyStats `json:"server_latency"`
	ServerSamples int          `json:"server_samples"`
	CacheHits     int          `json:"cache_hits"`
	CacheHitRate  float64      `json:"cache_hit_rate"`
	Forwarded     int          `json:"forwarded"`
	Simulations   int64        `json:"simulations"`
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mnpuload", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "http://localhost:8080", "daemon base URL")
		one       = fs.Bool("one", false, "submit a single job, wait, print the canonical result bytes, and exit")
		wlFlag    = fs.String("workloads", "", "comma-separated workload names (default: all eight; with -one: required, one per core)")
		scale     = fs.String("scale", "tiny", "system scale: tiny, small, or paper")
		sharing   = fs.String("sharing", "", "with -one: the sharing level; load mode: comma-separated levels (default all four)")
		ideal     = fs.Bool("ideal", false, "with -one: run the solo Ideal baseline instead of a mix")
		timeout   = fs.Duration("timeout", 0, "per-job simulation timeout (0 = server default)")
		cores     = fs.Int("cores", 2, "load mode: mix width of the request population")
		sample    = fs.Int("sample", 0, "load mode: sample the mix population down to at most this many mixes (0 = all)")
		seed      = fs.Int64("seed", 0, "load mode: sampling seed (0 = deterministic stride)")
		rounds    = fs.Int("rounds", 3, "load mode: times the population is replayed; rounds after the first should hit the result cache")
		conc      = fs.Int("concurrency", 8, "load mode: concurrent in-flight requests")
		out       = fs.String("out", "BENCH_serve.json", "load mode: write the JSON report here (empty = stdout only)")
		poll      = fs.Duration("poll", 25*time.Millisecond, "job status poll interval")
		waitTotal = fs.Duration("wait", 10*time.Minute, "overall deadline for the whole run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	ctx, cancel := context.WithTimeout(ctx, *waitTotal)
	defer cancel()
	c := client.New(*addr)

	if *one {
		spec := api.JobSpec{
			Scale: *scale, Sharing: *sharing, Ideal: *ideal,
			TimeoutMS: timeout.Milliseconds(),
		}
		if *wlFlag == "" {
			return fmt.Errorf("-one needs -workloads")
		}
		spec.Workloads = splitCSV(*wlFlag)
		_, result, _, err := submitAndWait(ctx, c, spec, *poll)
		if err != nil {
			return err
		}
		_, err = stdout.Write(result)
		return err
	}

	names := workloads.Names()
	if *wlFlag != "" {
		names = splitCSV(*wlFlag)
	}
	levels := []string{"static", "+d", "+dw", "+dwt"}
	if *sharing != "" {
		levels = splitCSV(*sharing)
	}
	if *rounds <= 0 {
		*rounds = 1
	}

	// The population mirrors a sweep expansion: every sampled mix at
	// every level, plus each distinct workload's Ideal baseline.
	mixes := experiments.Mixes(names, *cores, *sample, *seed)
	var population []api.JobSpec
	for _, mix := range mixes {
		for _, lv := range levels {
			population = append(population, api.JobSpec{
				Workloads: mix, Scale: *scale, Sharing: lv,
				TimeoutMS: timeout.Milliseconds(),
			})
		}
	}
	seen := map[string]bool{}
	for _, mix := range mixes {
		for _, w := range mix {
			if !seen[w] {
				seen[w] = true
				population = append(population, api.JobSpec{
					Workloads: []string{w}, Scale: *scale, Ideal: true,
					TimeoutMS: timeout.Milliseconds(),
				})
			}
		}
	}

	// Every response carries the daemon's Server-Timing header; the
	// client surfaces it through this hook, shared across the worker
	// goroutines.
	var (
		stMu     sync.Mutex
		serverMs []float64
	)
	c.OnServerTiming = func(ms float64) {
		stMu.Lock()
		serverMs = append(serverMs, ms)
		stMu.Unlock()
	}

	type reqSample struct {
		latency time.Duration
		cached  bool
		peer    bool
		err     error
	}
	total := len(population) * *rounds
	samples := make([]reqSample, total)
	idx := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < min(*conc, total); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t0 := time.Now()
				cached, _, peer, err := submitAndWait(ctx, c, population[i%len(population)], *poll)
				samples[i] = reqSample{latency: time.Since(t0), cached: cached, peer: peer, err: err}
			}
		}()
	}
	for i := 0; i < total; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			close(idx)
			wg.Wait()
			return ctx.Err()
		}
	}
	close(idx)
	wg.Wait()
	wall := time.Since(start)

	rep := benchReport{
		Addr: *addr, Requests: total, Concurrency: *conc,
		Rounds: *rounds, Population: len(population),
		DurationMs:    float64(wall.Microseconds()) / 1e3,
		ThroughputRPS: float64(total) / wall.Seconds(),
	}
	var lats []float64
	var firstErr error
	for _, sm := range samples {
		if sm.err != nil {
			rep.Failed++
			if firstErr == nil {
				firstErr = sm.err
			}
			continue
		}
		lats = append(lats, float64(sm.latency.Microseconds())/1e3)
		if sm.cached {
			rep.CacheHits++
		}
		if sm.peer {
			rep.Forwarded++
		}
	}
	if n := total - rep.Failed; n > 0 {
		rep.CacheHitRate = float64(rep.CacheHits) / float64(n)
	}
	rep.Latency = percentiles(lats)
	rep.ServerLatency = percentiles(serverMs)
	rep.ServerSamples = len(serverMs)
	if v, ok, err := c.MetricValue(ctx, "serve_simulations"); err == nil && ok {
		rep.Simulations = v
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := stdout.Write(b); err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			return err
		}
	}
	if firstErr != nil {
		return fmt.Errorf("%d/%d requests failed; first: %w", rep.Failed, total, firstErr)
	}
	return nil
}

// submitAndWait runs one job end to end, following fleet forwarding,
// and returns whether it was cache-served, the result bytes, and
// whether a peer (not the submission target) ran it.
func submitAndWait(ctx context.Context, c *client.Client, spec api.JobSpec, poll time.Duration) (cached bool, result []byte, peer bool, err error) {
	v, err := c.SubmitJob(ctx, spec)
	if err != nil {
		return false, nil, false, err
	}
	jc := c.ForJob(v)
	if !v.Status.Terminal() {
		if v, err = jc.WaitJob(ctx, v.ID, poll); err != nil {
			return false, nil, v.Peer != "", err
		}
	}
	if v.Status != api.StatusDone {
		return false, nil, v.Peer != "", fmt.Errorf("job %s %s: %s", v.ID, v.Status, v.Error)
	}
	result = v.Result
	if len(result) == 0 {
		if result, err = jc.JobResult(ctx, v.ID); err != nil {
			return false, nil, false, err
		}
	}
	return v.Cached, result, jc != c, nil
}

// percentiles summarizes a latency sample in milliseconds.
func percentiles(ms []float64) latencyStats {
	if len(ms) == 0 {
		return latencyStats{}
	}
	sort.Float64s(ms)
	sum := 0.0
	for _, v := range ms {
		sum += v
	}
	at := func(q float64) float64 { return ms[int(q*float64(len(ms)-1))] }
	return latencyStats{
		P50Ms:  at(0.50),
		P99Ms:  at(0.99),
		MeanMs: sum / float64(len(ms)),
		MaxMs:  ms[len(ms)-1],
	}
}

func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
