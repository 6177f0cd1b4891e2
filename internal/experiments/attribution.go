package experiments

import (
	"fmt"
	"slices"
	"strings"

	"mnpusim/internal/obs"
	"mnpusim/internal/obs/attrib"
	"mnpusim/internal/sim"
)

// AttributionResult is the paper's characterization layer for one
// dual-core mix: the per-core stall-cycle breakdown of each sharing
// level (Static, +D, +DW, +DWT) attributed against the solo Ideal
// baseline, so each core's slowdown decomposes into "cycles lost to
// resource X" (DRAM queueing, row conflicts, bus transfer, PTW
// queueing, walk latency) instead of a single slowdown number.
type AttributionResult struct {
	Workloads []string
	Levels    []sim.Sharing
	// Ideal[i] is core i's solo full-resource breakdown.
	Ideal []attrib.CoreBreakdown
	// ByLevel[level][i] is core i's breakdown under the shared run.
	ByLevel map[sim.Sharing][]attrib.CoreBreakdown
}

// Delta returns core's per-bucket extra cycles at level relative to its
// Ideal run: the slowdown explained bucket by bucket.
func (r AttributionResult) Delta(level sim.Sharing, core int) attrib.CoreBreakdown {
	return r.ByLevel[level][core].Minus(r.Ideal[core])
}

// String renders the per-level, per-core deltas as one table.
func (r AttributionResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attribution %s (extra cycles vs Ideal):\n", strings.Join(r.Workloads, "+"))
	fmt.Fprintf(&b, "  %-8s %-5s %12s %12s %12s %12s %12s %12s\n",
		"level", "core", "total", "dram_queue", "row_confl", "transfer", "ptw_queue", "walk")
	for _, lv := range r.Levels {
		for i := range r.ByLevel[lv] {
			d := r.Delta(lv, i)
			fmt.Fprintf(&b, "  %-8s %-5d %12d %12d %12d %12d %12d %12d\n",
				lv, i, d.TotalCycles, d.DRAMQueue, d.RowConflict, d.Transfer, d.PTWQueue, d.Walk)
		}
	}
	return b.String()
}

// DualAttribution runs one dual-core mix under every sharing level plus
// the two solo Ideal baselines, each with a stall-cycle attribution
// engine attached, and assembles the breakdowns. It is a one-mix
// SharingGrid whose units bypass the Runner's memo: attribution is
// per-run state.
func DualAttribution(r *Runner, a, b string) (AttributionResult, error) {
	g := SharingGrid{Cores: 2, Levels: sim.Levels(), Mixes: [][]string{{a, b}}}
	reports := make([][]attrib.CoreBreakdown, g.Units())
	_, err := g.Each(r, func(i int, cfg sim.Config) ([]int64, error) {
		eng := sim.NewAttribution(cfg)
		cfg.Obs = obs.Tee(cfg.Obs, eng)
		res, err := r.run(cfg)
		if err == nil {
			rep := eng.Report()
			reports[i], err = rep.Cores, rep.Validate()
		}
		if err != nil {
			mix, lv, baseline := g.Unit(i)
			if baseline {
				return nil, fmt.Errorf("experiments: attribution ideal %s: %w", mix[0], err)
			}
			return nil, fmt.Errorf("experiments: attribution %s %s: %w", strings.Join(mix, "+"), lv, err)
		}
		return coreCycles(res), nil
	})
	if err != nil {
		return AttributionResult{}, err
	}
	out := AttributionResult{
		Workloads: []string{a, b},
		Levels:    g.Levels,
		Ideal:     make([]attrib.CoreBreakdown, 2),
		ByLevel:   map[sim.Sharing][]attrib.CoreBreakdown{},
	}
	for i, lv := range g.Levels {
		out.ByLevel[lv] = reports[i]
	}
	for k, w := range out.Workloads {
		out.Ideal[k] = reports[g.Len()+slices.Index(g.Ideals(), w)][0]
		out.Ideal[k].Core = k
	}
	return out, nil
}
