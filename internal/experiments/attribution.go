package experiments

import (
	"fmt"
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
// engine attached, and assembles the breakdowns. The level and baseline
// runs fan out onto the worker pool; attribution is per-run state, so
// these simulations bypass the Runner's memo.
func DualAttribution(r *Runner, a, b string) (AttributionResult, error) {
	out := AttributionResult{
		Workloads: []string{a, b},
		Levels:    sim.Levels(),
		Ideal:     make([]attrib.CoreBreakdown, 2),
		ByLevel:   map[sim.Sharing][]attrib.CoreBreakdown{},
	}
	base, err := sim.NewWorkloadConfig(r.opts.Scale, sim.Static, a, b)
	if err != nil {
		return AttributionResult{}, err
	}
	attributed := func(cfg sim.Config) (attrib.Report, error) {
		eng := sim.NewAttribution(cfg)
		cfg.Obs = obs.Tee(cfg.Obs, eng)
		if _, err := r.run(cfg); err != nil {
			return attrib.Report{}, err
		}
		rep := eng.Report()
		if err := rep.Validate(); err != nil {
			return attrib.Report{}, err
		}
		return rep, nil
	}
	nl := len(out.Levels)
	shared := make([][]attrib.CoreBreakdown, nl)
	// Slots 0-1 are the Ideal baselines; the rest one sharing level each.
	err = r.ForEach(2+nl, func(i int) error {
		if i < 2 {
			rep, err := attributed(sim.IdealFor(base, i))
			if err != nil {
				return fmt.Errorf("experiments: attribution ideal %s: %w", out.Workloads[i], err)
			}
			out.Ideal[i] = rep.Cores[0]
			out.Ideal[i].Core = i
			return nil
		}
		lv := out.Levels[i-2]
		cfg, err := sim.NewWorkloadConfig(r.opts.Scale, lv, a, b)
		if err != nil {
			return err
		}
		rep, err := attributed(cfg)
		if err != nil {
			return fmt.Errorf("experiments: attribution %s+%s %s: %w", a, b, lv, err)
		}
		shared[i-2] = rep.Cores
		r.logf("attr %s+%s %s done", a, b, lv)
		return nil
	})
	if err != nil {
		return AttributionResult{}, err
	}
	for i, lv := range out.Levels {
		out.ByLevel[lv] = shared[i]
	}
	return out, nil
}
