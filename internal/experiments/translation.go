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
// Its levels are the scheme names.
type PTWPartitionResult struct {
	Scores[string]
}

func (r PTWPartitionResult) String() string {
	return r.summary("PTW partitioning (dual-core, DRAM shared)", 8)
}

// ptwGrid is the walker-partitioning study of schemes over mixes: +DW
// with each static split's walkers pinned to its cores. The dynamic
// scheme's cells are the sharing study's +DW cells.
func ptwGrid(r *Runner, schemes []PTWScheme, mixes [][]string) Grid[string] {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.Name
	}
	return Grid[string]{
		Cores: 2, Levels: names, Mixes: mixes,
		Config: func(mix []string, scheme int) (sim.Config, error) {
			cfg, err := sim.NewWorkloadConfig(r.opts.Scale, sim.ShareDW, mix...)
			if err != nil {
				return sim.Config{}, err
			}
			if s := schemes[scheme].Split; s != [2]int{} {
				cfg.WalkerMin = []int{s[0], s[1]}
				cfg.WalkerMax = []int{s[0], s[1]}
			}
			return cfg, nil
		},
	}
}

// PTWPartitioning runs Figs 13-14 over the 36 dual mixes.
func PTWPartitioning(r *Runner) (PTWPartitionResult, error) {
	schemes := PTWPartitionSchemes(2 * sim.ParamsFor(r.opts.Scale).PTWs)
	res, err := ptwGrid(r, schemes, Mixes(r.Names(), 2, 0, 0)).Run(r)
	return PTWPartitionResult{Scores: res}, err
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
	pages := p.PageLadder[:]
	res, err := soloGrid(r, pages, func(mix []string, rung int) (sim.Config, error) {
		return pageIdeal(r, mix[0], rung)
	}).Run(r)
	if err != nil {
		return PageSizeSingleResult{}, err
	}
	return PageSizeSingleResult{Pages: pages, Speedup: res.soloSpeedups()}, nil
}

// pageIdeal is workload w's Ideal at rung of the page ladder.
func pageIdeal(r *Runner, w string, rung int) (sim.Config, error) {
	cfg, err := sim.NewIdealConfig(r.opts.Scale, w)
	if err != nil {
		return sim.Config{}, err
	}
	pageConfig(&cfg, r.opts.Scale, rung)
	return cfg, nil
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
// mixes: one +DWT grid per page size, scored against the Ideals at that
// page size, whose cell cycles also give each mix's speedup over the
// base page.
func PageSizeMulti(r *Runner) (PageSizeMultiResult, error) {
	p := sim.ParamsFor(r.opts.Scale)
	pages := p.PageLadder[:]
	out := PageSizeMultiResult{
		Pages:    pages,
		Perf:     map[int][]float64{},
		Fairness: map[int][]float64{},
	}
	for _, cores := range []int{2, 4} {
		mixes := Mixes(r.Names(), 2, 0, 0)
		if cores == 4 {
			sample := r.opts.QuadSample
			if sample == 0 || sample > 20 {
				sample = 20 // three page sizes make the full sweep heavy
			}
			mixes = QuadMixes(r.Names(), sample)
		}
		cells := make([][][]int64, len(pages)) // [page][mix] per-core cycles
		for rung := range pages {
			g := SharingGrid{
				Cores: cores, Levels: []sim.Sharing{sim.ShareDWT}, Mixes: mixes,
				Config: func(mix []string, _ int) (sim.Config, error) {
					cfg, err := sim.NewWorkloadConfig(r.opts.Scale, sim.ShareDWT, mix...)
					if err != nil {
						return sim.Config{}, err
					}
					pageConfig(&cfg, r.opts.Scale, rung)
					return cfg, nil
				},
				Baseline: func(w string) (sim.Config, error) { return pageIdeal(r, w, rung) },
			}
			cells[rung] = make([][]int64, g.Len())
			res, err := g.Each(r, func(i int, cfg sim.Config) ([]int64, error) {
				res, err := r.result(cfg)
				cycles := coreCycles(res)
				if i < g.Len() {
					cells[rung][i] = cycles
				}
				return cycles, err
			})
			if err != nil {
				return PageSizeMultiResult{}, err
			}
			perMix := make([]float64, len(mixes)) // geomean of page-0 over page cycles
			for mi, mix := range mixes {
				ratios := make([]float64, len(mix))
				for k := range mix {
					ratios[k] = float64(cells[0][mi][k]) / float64(cells[rung][mi][k])
				}
				perMix[mi] = metrics.MustGeomean(ratios)
			}
			out.Perf[cores] = append(out.Perf[cores], metrics.MustGeomean(perMix))
			out.Fairness[cores] = append(out.Fairness[cores], res.OverallFairness(sim.ShareDWT))
		}
	}
	return out, nil
}
