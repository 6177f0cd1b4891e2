package experiments

import (
	"fmt"
	"strings"

	"mnpusim/internal/metrics"
	"mnpusim/internal/mmu"
	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

// PTWScheme is one walker-partitioning scheme of §4.4.1.
type PTWScheme struct {
	Name string
	// Split gives each core's static walker share out of the total
	// pool; nil means fully dynamic sharing (+DW).
	Split [2]int
}

// PTWPartitionSchemes returns static splits of the dual-core walker
// pool in the paper's ratio ladder, plus the dynamic scheme (Figs
// 13-14). total is the pool size (2 x per-core walkers). Core 0 gets
// round(r*total/8) walkers for each ladder ratio r:8-r, clamped so
// each core keeps at least one; a pool too small to tell two adjacent
// ratios apart yields the split once.
func PTWPartitionSchemes(total int) []PTWScheme {
	var out []PTWScheme
	for _, r := range []int{1, 2, 4, 6, 7} {
		a := min(max((r*total+4)/8, 1), total-1)
		if a < 1 || len(out) > 0 && out[len(out)-1].Split[0] == a {
			continue
		}
		out = append(out, PTWScheme{Name: fmt.Sprintf("%d:%d", a, total-a), Split: [2]int{a, total - a}})
	}
	out = append(out, PTWScheme{Name: "dynamic"})
	return out
}

// PTWPartitionResult reproduces Figs 13-14: performance and fairness of
// walker-partitioning schemes on the dual-core NPU. DRAM stays shared
// (the comparison is static walker partitioning versus dynamic +DW).
type PTWPartitionResult struct {
	Schemes []string
	Mixes   map[string][]MixScore
}

// OverallGeomean returns the geomean of per-mix geomeans for a scheme.
func (r PTWPartitionResult) OverallGeomean(scheme string) float64 {
	vals := make([]float64, len(r.Mixes[scheme]))
	for i, m := range r.Mixes[scheme] {
		vals[i] = m.Geomean
	}
	return metrics.MustGeomean(vals)
}

// OverallFairness returns mean fairness for a scheme.
func (r PTWPartitionResult) OverallFairness(scheme string) float64 {
	vals := make([]float64, len(r.Mixes[scheme]))
	for i, m := range r.Mixes[scheme] {
		vals[i] = m.Fairness
	}
	return metrics.Mean(vals)
}

func (r PTWPartitionResult) String() string {
	var b strings.Builder
	b.WriteString("PTW partitioning (dual-core, DRAM shared):\n")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, "  %-8s geomean=%.3f fairness=%.3f\n", s, r.OverallGeomean(s), r.OverallFairness(s))
	}
	return b.String()
}

// PTWPartitioning runs Figs 13-14.
func PTWPartitioning(r *Runner) (PTWPartitionResult, error) {
	p := sim.ParamsFor(r.opts.Scale)
	schemes := PTWPartitionSchemes(2 * p.PTWs)
	out := PTWPartitionResult{Mixes: map[string][]MixScore{}}
	for _, s := range schemes {
		out.Schemes = append(out.Schemes, s.Name)
	}
	mixes := r.DualMixes()
	ns := len(schemes)
	scores := make([]MixScore, len(mixes)*ns)
	err := r.ForEach(len(scores), func(i int) error {
		mix, s := mixes[i/ns], schemes[i%ns]
		cfg, err := sim.NewWorkloadConfig(r.opts.Scale, sim.ShareDW, mix[0], mix[1])
		if err != nil {
			return err
		}
		if s.Split != [2]int{} {
			cfg.WalkerMin = []int{s.Split[0], s.Split[1]}
			cfg.WalkerMax = []int{s.Split[0], s.Split[1]}
		}
		res, err := r.run(cfg)
		if err != nil {
			return fmt.Errorf("experiments: ptw %s+%s %s: %w", mix[0], mix[1], s.Name, err)
		}
		r.logf("ptw %s+%s %s done", mix[0], mix[1], s.Name)
		sa, err := r.Speedup(mix[0], res.Cores[0].Cycles)
		if err != nil {
			return err
		}
		sb, err := r.Speedup(mix[1], res.Cores[1].Cycles)
		if err != nil {
			return err
		}
		scores[i] = newMixScore(mix[:], []float64{sa, sb})
		return nil
	})
	if err != nil {
		return PTWPartitionResult{}, err
	}
	for i, sc := range scores {
		name := schemes[i%ns].Name
		out.Mixes[name] = append(out.Mixes[name], sc)
	}
	return out, nil
}

// PageSizeSingleResult reproduces Fig 15: single-core speedup of the
// large-page stand-ins over the base page.
type PageSizeSingleResult struct {
	Pages []mmu.PageSize
	// Speedup[workload][i] is the speedup of page i over page 0.
	Speedup map[string][]float64
}

func (r PageSizeSingleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "page-size speedup over %s (single-core):\n", r.Pages[0])
	for _, w := range workloads.Names() {
		fmt.Fprintf(&b, "  %-6s", w)
		for i := 1; i < len(r.Pages); i++ {
			fmt.Fprintf(&b, " %s=%.3f", r.Pages[i], r.Speedup[w][i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// pageConfig applies the i-th rung of the scale's page ladder (the
// stand-ins for 4KB/64KB/1MB with 4/3/2-level walks).
func pageConfig(cfg *sim.Config, scale workloads.Scale, rung int) {
	p := sim.ParamsFor(scale)
	cfg.PageSize = p.PageLadder[rung]
	cfg.WalkLevels = 4 - rung
}

// PageSizeSingle runs Fig 15: each workload alone (Ideal single-core)
// under the three page sizes.
func PageSizeSingle(r *Runner) (PageSizeSingleResult, error) {
	p := sim.ParamsFor(r.opts.Scale)
	out := PageSizeSingleResult{Pages: p.PageLadder[:], Speedup: map[string][]float64{}}
	names := r.Names()
	np := len(out.Pages)
	cycles := make([]int64, len(names)*np)
	err := r.ForEach(len(cycles), func(i int) error {
		w, pi := names[i/np], i%np
		base, err := sim.NewWorkloadConfig(r.opts.Scale, sim.Static, w, w)
		if err != nil {
			return err
		}
		cfg := sim.IdealFor(base, 0)
		pageConfig(&cfg, r.opts.Scale, pi)
		res, err := r.run(cfg)
		if err != nil {
			return fmt.Errorf("experiments: page %s %s: %w", w, out.Pages[pi], err)
		}
		cycles[i] = res.Cores[0].Cycles
		return nil
	})
	if err != nil {
		return PageSizeSingleResult{}, err
	}
	for wi, w := range names {
		sp := make([]float64, np)
		for i := 0; i < np; i++ {
			sp[i] = float64(cycles[wi*np]) / float64(cycles[wi*np+i])
		}
		out.Speedup[w] = sp
		r.logf("page single %s done", w)
	}
	return out, nil
}

// PageSizeMultiResult reproduces Fig 16: geomean performance
// (normalized to the base page) and fairness (against Ideal) of the
// large-page stand-ins on dual- and quad-core NPUs under +DWT.
type PageSizeMultiResult struct {
	Pages []mmu.PageSize
	// Perf[cores][i]: geomean speedup of page i vs page 0 across mixes.
	Perf map[int][]float64
	// Fairness[cores][i]: mean Eq-1 fairness at page i.
	Fairness map[int][]float64
}

func (r PageSizeMultiResult) String() string {
	var b strings.Builder
	b.WriteString("page size on multi-core (+DWT):\n")
	for _, cores := range []int{2, 4} {
		fmt.Fprintf(&b, "  %d-core:", cores)
		for i := 1; i < len(r.Pages); i++ {
			fmt.Fprintf(&b, " perf(%s)=%.3f", r.Pages[i], r.Perf[cores][i])
		}
		for i := range r.Pages {
			fmt.Fprintf(&b, " fair(%s)=%.3f", r.Pages[i], r.Fairness[cores][i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PageSizeMulti runs Fig 16 over the dual mixes and (sampled) quad
// mixes.
func PageSizeMulti(r *Runner) (PageSizeMultiResult, error) {
	p := sim.ParamsFor(r.opts.Scale)
	out := PageSizeMultiResult{
		Pages:    p.PageLadder[:],
		Perf:     map[int][]float64{},
		Fairness: map[int][]float64{},
	}
	for _, cores := range []int{2, 4} {
		var mixes [][]string
		if cores == 2 {
			for _, m := range r.DualMixes() {
				mixes = append(mixes, []string{m[0], m[1]})
			}
		} else {
			sample := r.opts.QuadSample
			if sample == 0 || sample > 20 {
				sample = 20 // three page sizes make the full sweep heavy
			}
			mixes = QuadMixes(r.Names(), sample)
		}
		// Ideal baselines per page size per workload, fanned out together.
		names := r.Names()
		np, nw := len(out.Pages), len(names)
		idealCycles := make([]int64, np*nw)
		err := r.ForEach(len(idealCycles), func(i int) error {
			pi, w := i/nw, names[i%nw]
			base, err := sim.NewWorkloadConfig(r.opts.Scale, sim.Static, w, w)
			if err != nil {
				return err
			}
			cfg := sim.IdealFor(base, 0)
			pageConfig(&cfg, r.opts.Scale, pi)
			res, err := r.run(cfg)
			if err != nil {
				return err
			}
			idealCycles[i] = res.Cores[0].Cycles
			return nil
		})
		if err != nil {
			return PageSizeMultiResult{}, err
		}
		ideals := make([]map[string]int64, np)
		for pi := range ideals {
			ideals[pi] = map[string]int64{}
			for wi, w := range names {
				ideals[pi][w] = idealCycles[pi*nw+wi]
			}
		}

		// All (mix, page) cells fan out; the page-0 baseline each mix
		// normalizes against is read back from the same slice afterwards.
		mixCycles := make([][]int64, len(mixes)*np)
		err = r.ForEach(len(mixCycles), func(i int) error {
			mix, pi := mixes[i/np], i%np
			cfg, err := sim.NewWorkloadConfig(r.opts.Scale, sim.ShareDWT, mix...)
			if err != nil {
				return err
			}
			pageConfig(&cfg, r.opts.Scale, pi)
			res, err := r.run(cfg)
			if err != nil {
				return fmt.Errorf("experiments: page multi %v %s: %w", mix, out.Pages[pi], err)
			}
			r.logf("page multi %d-core %v %s done", cores, mix, out.Pages[pi])
			cyc := make([]int64, len(res.Cores))
			for k, c := range res.Cores {
				cyc[k] = c.Cycles
			}
			mixCycles[i] = cyc
			return nil
		})
		if err != nil {
			return PageSizeMultiResult{}, err
		}

		perfGeo := make([][]float64, np) // per-mix geomean of raw cycles ratio vs page0
		fairVals := make([][]float64, np)
		for mi, mix := range mixes {
			base := mixCycles[mi*np] // page-0 cycles per workload
			for pi := 0; pi < np; pi++ {
				cyc := mixCycles[mi*np+pi]
				ratios := make([]float64, len(mix))
				speedups := make([]float64, len(mix))
				for k := range mix {
					ratios[k] = float64(base[k]) / float64(cyc[k])
					speedups[k] = metrics.Speedup(ideals[pi][mix[k]], cyc[k])
				}
				perfGeo[pi] = append(perfGeo[pi], metrics.MustGeomean(ratios))
				fairVals[pi] = append(fairVals[pi], metrics.FairnessFromSpeedups(speedups))
			}
		}
		perf := make([]float64, len(out.Pages))
		fair := make([]float64, len(out.Pages))
		for i := range out.Pages {
			perf[i] = metrics.MustGeomean(perfGeo[i])
			fair[i] = metrics.Mean(fairVals[i])
		}
		out.Perf[cores] = perf
		out.Fairness[cores] = fair
	}
	return out, nil
}
