package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"mnpusim/internal/metrics"
	"mnpusim/internal/npu"
	"mnpusim/internal/obs"
	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/obs/hostprof"
	"mnpusim/internal/sim"
	"mnpusim/internal/tile"
)

// setupRepeats is how many times a sweep times its set-up; setup_s is the
// median.
const setupRepeats = 101

// sweepWorkload runs a grid of simulations serially in-process, in whole
// passes, until the next pass would end after --seconds.
type sweepWorkload struct {
	mixes   [][2]string
	levels  []sim.Sharing
	noTrans bool
}

func (w sweepWorkload) units() []unit {
	return bothPlacements(gridUnits(w.mixes, w.levels, w.noTrans))
}

func (w sweepWorkload) run(ctx context.Context, e *env, traced bool) (*outcome, error) {
	units := shuffled(w.units(), rand.New(rand.NewSource(e.seed)))
	out := newOutcome()
	tr, store := newTracer(traced)
	root := tr.Start(dtrace.SpanContext{}, "bench sweep")

	// Set-up runs setupRepeats times back to back; setup_s is the median.
	// The last set-up's configurations are run, and tile.BuildCached's
	// cache is then filled, as a process's first simulations do.
	var cfgs []sim.Config
	var compile []float64
	for range setupRepeats {
		t := time.Now()
		c, build, err := setupSweep(units, tr, root.Context())
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t))
		compile = append(compile, build.Seconds())
		cfgs = c
	}
	for i, cfg := range cfgs {
		for k, net := range cfg.Nets {
			if _, err := tile.BuildCached(net, tileParams(cfg.Arch[k])); err != nil {
				return nil, fmt.Errorf("%s: %w", units[i].label(), err)
			}
		}
	}

	// A host probe runs before every simulation and after the last, so
	// the probes sample the host over the whole run; the pass time leaves
	// them out.
	sums := map[string]float64{}
	passes := 0
	var probing time.Duration
	probe := func() {
		t := time.Now()
		probeHost(out, 1)
		probing += time.Since(t)
	}
	start := time.Now()
	for {
		ps := time.Now()
		pass := tr.Start(root.Context(), "pass")
		results := make([]sim.Result, len(units))
		for i, u := range units {
			probe()
			cfg := cfgs[i]
			var reg *obs.Registry
			var hp *hostprof.Profiler
			if traced {
				reg, hp = obs.NewRegistry(), hostprof.New()
				cfg.Metrics, cfg.HostProf = reg, hp
			}
			sp := tr.Start(pass.Context(), "sim_run")
			sp.SetAttr("config", u.label())
			t := time.Now()
			res, err := sim.RunContext(ctx, cfg)
			d := time.Since(t)
			sp.End()
			out.attempted++
			if err != nil {
				out.fail(u.label(), err)
				continue
			}
			out.ops = append(out.ops, d)
			results[i] = res
			b, err := json.Marshal(res)
			if err != nil {
				out.fail(u.label(), err)
				continue
			}
			out.check(e.golden, u.label(), digest(b))
			if traced {
				addHostProf(sums, d, hp)
				addRegistry(sums, snapshotMap(reg.Snapshot()))
			}
		}
		fmt.Fprintf(os.Stderr, "bench: pass %d: geomean speedup %s\n", passes+1, speedups(units, results))
		pass.End()
		passes++
		if time.Since(start)+time.Since(ps) > e.seconds {
			break
		}
	}
	probe()
	elapsed := time.Since(start) - probing
	root.End()

	out.opsPerSec = float64(len(out.ops)) / elapsed.Seconds()
	var err error
	if out.rssMB, err = peakRSSMB("self"); err != nil {
		return nil, err
	}
	if traced {
		for k := range sums {
			sums[k] /= float64(passes)
		}
		sums["bench.pass_s"] = elapsed.Seconds() / float64(passes)
		sums["bench.host_probe_ms"] = percentileMS(out.probes, 50)
		sums["tile.build_s"] = metrics.Percentile(compile, 50)
		out.layers = finishLayers(sums)
		spans, _ := store.Get(root.Context().TraceID)
		out.spans = traceParts{traceID: root.Context().TraceID, spans: spans}
	}
	return out, nil
}

// setupSweep builds every unit's configuration and compiles every
// distinct tile schedule from cold with tile.Build, the work
// tile.BuildCached does on a miss. It returns the configurations and the
// compile time.
func setupSweep(units []unit, tr *dtrace.Tracer, parent dtrace.SpanContext) ([]sim.Config, time.Duration, error) {
	sp := tr.Start(parent, "setup")
	defer sp.End()
	cfgs := make([]sim.Config, len(units))
	for i, u := range units {
		var err error
		if cfgs[i], err = u.config(); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", u.label(), err)
		}
	}
	t := time.Now()
	seen := map[string]bool{}
	for _, cfg := range cfgs {
		for i, net := range cfg.Nets {
			p := tileParams(cfg.Arch[i])
			key := fmt.Sprintf("%s|%+v", net.Name, p)
			if seen[key] {
				continue
			}
			seen[key] = true
			ts := tr.Start(sp.Context(), "tile_build")
			ts.SetAttr("net", net.Name)
			_, err := tile.Build(net, p)
			ts.End()
			if err != nil {
				return nil, 0, fmt.Errorf("compiling %s: %w", net.Name, err)
			}
		}
	}
	return cfgs, time.Since(t), nil
}

// tileParams are the tiling parameters sim.RunContext compiles a core's
// schedule with.
func tileParams(a npu.ArchConfig) tile.Params {
	return tile.Params{
		Array:      a.Array,
		Dataflow:   a.Dataflow,
		SPMBytes:   a.SPMBytes,
		DTypeBytes: a.DTypeBytes,
		BlockBytes: a.BlockBytes,
	}
}

// speedups is the Figs 4/6 headline of one pass: per sharing level, the
// geomean over every core of every mix of its speedup against its Ideal.
func speedups(units []unit, results []sim.Result) string {
	ideal := map[string]int64{}
	for i, u := range units {
		if u.level == sim.Ideal && len(results[i].Cores) == 1 {
			ideal[u.mix[0]] = results[i].Cores[0].Cycles
		}
	}
	byLevel := map[sim.Sharing][]float64{}
	for i, u := range units {
		if u.level == sim.Ideal || len(results[i].Cores) != len(u.mix) {
			continue
		}
		for k, w := range u.mix {
			byLevel[u.level] = append(byLevel[u.level], metrics.Speedup(ideal[w], results[i].Cores[k].Cycles))
		}
	}
	var b strings.Builder
	for _, lv := range sim.Levels() {
		if g, err := metrics.Geomean(byLevel[lv]); err == nil {
			fmt.Fprintf(&b, " %s=%.4f", levelName(lv), g)
		}
	}
	return strings.TrimSpace(b.String())
}
