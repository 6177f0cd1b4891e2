package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mnpusim/internal/serve"
	"mnpusim/internal/serve/api"
	"mnpusim/internal/sim"
)

var update = flag.Bool("update", false, "regenerate golden/*.json by simulating every configuration of every workload")

// inProcess serves the job API from serve.New under httptest instead of a
// daemon subprocess.
func inProcess(ctx context.Context, o daemonOpts) (target, error) {
	srv, err := serve.New(serve.Config{Workers: runtime.NumCPU(), CacheDir: o.cacheDir, CacheEntries: o.cacheEntries})
	if err != nil {
		return nil, err
	}
	return &inProc{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

type inProc struct {
	srv  *serve.Server
	ts   *httptest.Server
	once sync.Once
	err  error
}

func (p *inProc) url() string                  { return p.ts.URL }
func (p *inProc) peakRSSMB() (float64, error)  { return peakRSSMB("self") }
func (p *inProc) cpuSeconds() (float64, error) { return cpuSeconds("self") }

func (p *inProc) stop() error {
	p.once.Do(func() {
		p.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		p.err = p.srv.Shutdown(ctx)
	})
	return p.err
}

// smokeWorkloads are the four workloads cut down to a few cheap
// configurations, each of which the real workload also runs, so the
// committed golden digests check them.
func smokeWorkloads() map[string]workload {
	return map[string]workload{
		"sweep-dual":   sweepWorkload{mixes: [][2]string{{"alex", "dlrm"}}, levels: []sim.Sharing{sim.ShareD}},
		"notrans-dual": sweepWorkload{mixes: [][2]string{{"sfrnn", "ncf"}}, noTrans: true}, // the two Ideals only
		"serve-mixed": mixedWorkload{
			hot:    idealUnits(false, "dlrm", "ncf"),
			cold:   mixUnits([][2]string{{"alex", "dlrm"}}, []sim.Sharing{sim.ShareD}, false),
			rate:   20,
			settle: 100 * time.Millisecond,
		},
		"serve-warm": warmWorkload{
			population: concat(mixUnits(dlrmNCF, []sim.Sharing{sim.Static}, true), idealUnits(true, "dlrm", "ncf")),
			memEntries: 2,
			rate:       200,
			sample:     3,
		},
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the harness checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

type printed struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// lastLine decodes the result line the benchmark prints last.
func lastLine(t *testing.T, out string) printed {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return p
}

// TestWorkloadsSmoke runs every workload's code path, untraced and
// traced, at smoke size against an in-process server, and checks the
// printed metrics against BENCHMARK.json, the results against the golden
// digests, and the written trace the way `mnputrace -mode spans` does.
func TestWorkloadsSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	smoke := smokeWorkloads()
	if len(bj.Workloads) != len(smoke) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(smoke))
	}
	for _, bw := range bj.Workloads {
		w, ok := smoke[bw.Name]
		if !ok || benchWorkloads()[bw.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %q is not a benchmark workload", bw.Name)
		}
		t.Run(bw.Name, func(t *testing.T) {
			golden, err := loadGolden(bw.Name)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			e := &env{seed: 2, seconds: 400 * time.Millisecond, golden: golden, start: inProcess, workDir: dir}
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				if err := runWorkload(context.Background(), &out, bw.Name, w, e, traced, dir); err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				p := lastLine(t, out.String())
				if !p.Correct || p.Failed != 0 || p.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d\n%s", traced, p.Correct, p.Failed, p.Attempted, out.String())
				}
				want := bj.EndToEnd
				if traced {
					want = bj.PerLayer
				}
				if len(p.Metrics) != len(want) {
					t.Errorf("traced=%v: printed %d metrics, BENCHMARK.json lists %d", traced, len(p.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := p.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s printed as %+v (ok=%v), want unit %s", traced, m.Name, got, ok, m.Unit)
					}
				}
				if traced {
					checkTrace(t, filepath.Join(dir, bw.Name+"-seed2"), p.Metrics)
				}
			}
		})
	}
}

// checkTrace decodes the written trace view and validates it, and checks
// that the simulator's host-time sections add up to sim.run_s.
func checkTrace(t *testing.T, base string, m map[string]jsonMetric) {
	t.Helper()
	b, err := os.ReadFile(base + ".trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var view api.TraceView
	if err := json.Unmarshal(b, &view); err != nil {
		t.Fatal(err)
	}
	if err := validateSpans(view); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(base + ".layers.json"); err != nil {
		t.Fatal(err)
	}
	sum := m["sim.kernel_heap_host_s"].Value + m["mmu.tick_host_s"].Value + m["dram.tick_host_s"].Value +
		m["npu.tick_host_s"].Value + m["sim.unattributed_host_s"].Value
	if run := m["sim.run_s"].Value; math.Abs(sum-run) > 1e-9*math.Max(1, run) {
		t.Errorf("host-time sections sum to %v s, sim.run_s is %v s", sum, run)
	}
}

// TestScheduleIsSeeded checks that a seed fixes a run's inputs and that
// another seed changes them.
func TestScheduleIsSeeded(t *testing.T) {
	w := benchWorkloads()["serve-mixed"].(mixedWorkload)
	at1, jobs1 := w.schedule(1, 20*time.Second)
	at1b, jobs1b := w.schedule(1, 20*time.Second)
	at2, _ := w.schedule(2, 20*time.Second)
	if len(at1) != 200 || len(jobs1) != 200 {
		t.Fatalf("schedule has %d arrivals, want 200", len(at1))
	}
	for i := range at1 {
		if at1[i] != at1b[i] || jobs1[i].label() != jobs1b[i].label() {
			t.Fatalf("seed 1 gave two different schedules at arrival %d", i)
		}
	}
	if at1[0] == at2[0] && at1[1] == at2[1] {
		t.Error("seeds 1 and 2 gave the same arrival times")
	}
	seen := map[string]bool{}
	for _, u := range jobs1 {
		seen[u.label()] = true
	}
	for _, u := range w.cold {
		found := false
		for _, p := range bothPlacements([]unit{u}) {
			found = found || seen[p.label()]
		}
		if !found {
			t.Errorf("cold configuration %s is never submitted", u.label())
		}
	}
}

// TestRepeatsHitTheCache checks that every serve-mixed arrival is a hot
// configuration exactly as set-up cached it, the first submission of a
// cold configuration, or a repeat of a cold one submitted at least settle
// earlier.
func TestRepeatsHitTheCache(t *testing.T) {
	w := benchWorkloads()["serve-mixed"].(mixedWorkload)
	warmed := map[string]bool{}
	for _, u := range w.hot {
		warmed[u.label()] = true
	}
	for seed := int64(1); seed <= 20; seed++ {
		at, jobs := w.schedule(seed, 20*time.Second)
		first := map[string]time.Duration{}
		for i, u := range jobs {
			l := u.label()
			if warmed[l] {
				continue
			}
			f, seen := first[l]
			if !seen {
				first[l] = at[i]
			} else if at[i]-f < w.settle {
				t.Errorf("seed %d: %s repeats %v after its first submission, before it settled", seed, l, at[i]-f)
			}
		}
		if len(first) != len(w.cold) {
			t.Errorf("seed %d: %d configurations were submitted uncached, want the %d cold ones", seed, len(first), len(w.cold))
		}
	}
}

// TestUpdateGolden regenerates the golden digests with -update; without
// it, it checks that every workload's golden file covers exactly the
// configurations the workload can produce.
func TestUpdateGolden(t *testing.T) {
	for name, w := range benchWorkloads() {
		units := w.units()
		if !*update {
			g, err := loadGolden(name)
			if err != nil {
				t.Fatal(err)
			}
			if len(g) != len(units) {
				t.Errorf("golden/%s.json has %d digests, the workload can produce %d configurations", name, len(g), len(units))
			}
			for _, u := range units {
				if g[u.label()] == "" {
					t.Errorf("golden/%s.json has no digest for %s", name, u.label())
				}
			}
			continue
		}
		digests := make([]string, len(units))
		var wg sync.WaitGroup
		next := make(chan int)
		for k := 0; k < runtime.NumCPU(); k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					cfg, err := units[i].config()
					if err != nil {
						t.Error(err)
						continue
					}
					res, err := sim.Run(cfg)
					if err != nil {
						t.Errorf("%s: %v", units[i].label(), err)
						continue
					}
					b, err := json.Marshal(res)
					if err != nil {
						t.Error(err)
						continue
					}
					digests[i] = digest(b)
				}
			}()
		}
		for i := range units {
			next <- i
		}
		close(next)
		wg.Wait()
		g := map[string]string{}
		for i, u := range units {
			g[u.label()] = digests[i]
		}
		b, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("golden", name+".json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
