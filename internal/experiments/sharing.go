package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"mnpusim/internal/metrics"
	"mnpusim/internal/sim"
	"mnpusim/internal/stats"
	"mnpusim/internal/workloads"
)

// MixScore holds one mix's outcome at one sharing level.
type MixScore struct {
	Workloads []string
	Speedups  []float64
	Geomean   float64
	Fairness  float64
}

// SharingResult reproduces Figs 4-7: per-mix geomean speedup and
// fairness for each sharing level, on dual- or quad-core NPUs.
type SharingResult struct {
	Cores  int
	Levels []sim.Sharing
	// Mixes[level] holds one score per workload mix.
	Mixes map[sim.Sharing][]MixScore
}

// OverallGeomean returns the geometric mean of per-mix geomean speedups
// at one level (the headline numbers of §4.2.1).
func (r SharingResult) OverallGeomean(level sim.Sharing) float64 {
	sc := r.Mixes[level]
	vals := make([]float64, len(sc))
	for i, m := range sc {
		vals[i] = m.Geomean
	}
	return metrics.MustGeomean(vals)
}

// OverallFairness returns the arithmetic mean fairness at one level
// (§4.2.2 reports averages).
func (r SharingResult) OverallFairness(level sim.Sharing) float64 {
	sc := r.Mixes[level]
	vals := make([]float64, len(sc))
	for i, m := range sc {
		vals[i] = m.Fairness
	}
	return metrics.Mean(vals)
}

// PerWorkloadGeomean returns, for each workload, the geometric mean of
// its speedups over every mix containing it — the per-workload bars of
// Fig 4 / Fig 6.
func (r SharingResult) PerWorkloadGeomean(level sim.Sharing) map[string]float64 {
	acc := map[string][]float64{}
	for _, m := range r.Mixes[level] {
		for i, w := range m.Workloads {
			acc[w] = append(acc[w], m.Speedups[i])
		}
	}
	out := map[string]float64{}
	for w, v := range acc {
		out[w] = metrics.MustGeomean(v)
	}
	return out
}

// GeomeanCDFValues returns the per-mix geomeans at one level, for the
// CDF plots of Figs 5 and 7.
func (r SharingResult) GeomeanCDFValues(level sim.Sharing) []float64 {
	sc := r.Mixes[level]
	out := make([]float64, len(sc))
	for i, m := range sc {
		out[i] = m.Geomean
	}
	return out
}

// FairnessCDFValues returns the per-mix fairness values at one level.
func (r SharingResult) FairnessCDFValues(level sim.Sharing) []float64 {
	sc := r.Mixes[level]
	out := make([]float64, len(sc))
	for i, m := range sc {
		out[i] = m.Fairness
	}
	return out
}

// String summarizes the headline rows.
func (r SharingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d-core sharing study (%d mixes):\n", r.Cores, len(r.Mixes[sim.Static]))
	for _, lv := range r.Levels {
		fmt.Fprintf(&b, "  %-7s geomean=%.3f fairness=%.3f\n", lv, r.OverallGeomean(lv), r.OverallFairness(lv))
	}
	return b.String()
}

// newMixScore scores one mix from its workloads' speedups: their
// geomean and the Eq-1 fairness. Every MixScore is built here.
func newMixScore(names []string, speedups []float64) MixScore {
	return MixScore{
		Workloads: append([]string(nil), names...),
		Speedups:  speedups,
		Geomean:   metrics.MustGeomean(speedups),
		Fairness:  metrics.FairnessFromSpeedups(speedups),
	}
}

// SharingGrid is the paper's central study (§4.2, Figs 4-7) as data:
// every mix run at every sharing level, each core's cycles divided by
// its workload's solo Ideal run. It is the one implementation of that
// computation: DualCoreSharing and QuadCoreSharing run it on a Runner,
// and the serving layer's sweeps expand it into jobs and score the
// jobs' results with it.
type SharingGrid struct {
	Cores  int
	Levels []sim.Sharing
	Mixes  [][]string
}

// Len returns the number of cells, len(Mixes) x len(Levels).
func (g SharingGrid) Len() int { return len(g.Mixes) * len(g.Levels) }

// Cell returns cell i of the mix-major, level-minor enumeration.
func (g SharingGrid) Cell(i int) (mix []string, level sim.Sharing) {
	nl := len(g.Levels)
	return g.Mixes[i/nl], g.Levels[i%nl]
}

// Ideals lists the grid's distinct workloads in first-appearance order:
// the solo Ideal runs its speedups are normalized to.
func (g SharingGrid) Ideals() []string {
	var out []string
	seen := make(map[string]bool)
	for _, mix := range g.Mixes {
		for _, w := range mix {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// Score turns measured cycles into the SharingResult: cells[i] holds
// cell i's per-core cycles and ideal each workload's Ideal cycles.
func (g SharingGrid) Score(cells [][]int64, ideal map[string]int64) (SharingResult, error) {
	if len(cells) != g.Len() {
		return SharingResult{}, fmt.Errorf("experiments: %d cell results for a %d-cell grid", len(cells), g.Len())
	}
	out := SharingResult{Cores: g.Cores, Levels: g.Levels, Mixes: make(map[sim.Sharing][]MixScore)}
	for i, cycles := range cells {
		mix, lv := g.Cell(i)
		if len(cycles) < len(mix) {
			return SharingResult{}, fmt.Errorf("experiments: %v %s: %d core results for %d workloads",
				mix, lv, len(cycles), len(mix))
		}
		sp := make([]float64, len(mix))
		for k, w := range mix {
			ib, ok := ideal[w]
			if !ok {
				return SharingResult{}, fmt.Errorf("experiments: no ideal baseline for %s", w)
			}
			sp[k] = metrics.Speedup(ib, cycles[k])
		}
		out.Mixes[lv] = append(out.Mixes[lv], newMixScore(mix, sp))
	}
	return out, nil
}

// Run simulates the grid on r's worker pool and scores it. Cells and
// Ideal baselines go through r's memo, so grids sharing cells (Figs 4
// and 6, Figs 5 and 7) simulate each once, and the result is identical
// at any worker count.
func (g SharingGrid) Run(r *Runner) (SharingResult, error) {
	cells := make([][]int64, g.Len())
	err := r.ForEach(len(cells), func(i int) error {
		mix, lv := g.Cell(i)
		res, err := r.mix(mix, lv)
		if err != nil {
			return err
		}
		cells[i] = make([]int64, len(res.Cores))
		for k, c := range res.Cores {
			cells[i][k] = c.Cycles
		}
		// The cell's Ideal baselines run here too, on the pool beside
		// the cells rather than serially after them.
		for _, w := range mix {
			if _, err := r.Ideal(w); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return SharingResult{}, err
	}
	ideal := make(map[string]int64)
	for _, w := range g.Ideals() {
		ib, err := r.Ideal(w)
		if err != nil {
			return SharingResult{}, err
		}
		ideal[w] = ib.Cycles
	}
	return g.Score(cells, ideal)
}

// DualCoreSharing runs Fig 4 (performance) and Fig 6 (fairness): all 36
// dual-core mixes under Static, +D, +DW, +DWT, normalized to Ideal.
func DualCoreSharing(r *Runner) (SharingResult, error) {
	return SharingGrid{Cores: 2, Levels: sim.Levels(), Mixes: Mixes(r.Names(), 2, 0, 0)}.Run(r)
}

// Mixes enumerates the M(len(names), cores) workload mixes in the
// deterministic multiset order, optionally sampled. With seed 0 the
// sample keeps every k-th mix (k = population/sample, the stride the
// quad experiments have always used); a non-zero seed instead keeps a
// seed-keyed random subset of exactly sample mixes, still in
// enumeration order. The same (names, cores, sample, seed) always
// yields the same list.
func Mixes(names []string, cores, sample int, seed int64) [][]string {
	sets := stats.Multisets(len(names), cores)
	keep := make([]int, 0, len(sets))
	switch {
	case sample <= 0 || sample >= len(sets):
		for i := range sets {
			keep = append(keep, i)
		}
	case seed == 0:
		stride := len(sets) / sample
		for i := 0; i < len(sets); i += stride {
			keep = append(keep, i)
		}
	default:
		rng := rand.New(rand.NewSource(seed))
		keep = append(keep, rng.Perm(len(sets))[:sample]...)
		sort.Ints(keep)
	}
	out := make([][]string, 0, len(keep))
	for _, i := range keep {
		mix := make([]string, cores)
		for k, idx := range sets[i] {
			mix[k] = names[idx]
		}
		out = append(out, mix)
	}
	return out
}

// QuadMixes enumerates the 330 quad-core mixes, optionally sampled down
// to at most sample mixes (every k-th of the deterministic order).
func QuadMixes(names []string, sample int) [][]string {
	return Mixes(names, 4, sample, 0)
}

// QuadCoreSharing runs Fig 5 (performance CDF) and Fig 7 (fairness
// CDF): quad-core mixes under the four sharing levels.
func QuadCoreSharing(r *Runner) (SharingResult, error) {
	return SharingGrid{Cores: 4, Levels: sim.Levels(), Mixes: QuadMixes(r.Names(), r.opts.QuadSample)}.Run(r)
}

// SensitivityResult reproduces Fig 8: the distribution of each
// workload's +DWT dual-core performance across co-runners.
type SensitivityResult struct {
	// Speedups[w] holds w's speedup with each of the eight co-runners.
	Speedups map[string][]float64
	Boxes    map[string]metrics.BoxStats
}

// String renders the per-workload summaries.
func (s SensitivityResult) String() string {
	var b strings.Builder
	b.WriteString("contention sensitivity (+DWT, dual-core):\n")
	for _, w := range workloads.Names() {
		fmt.Fprintf(&b, "  %-6s %s\n", w, s.Boxes[w])
	}
	return b.String()
}

// ContentionSensitivity runs Fig 8 over the cached dual +DWT mixes.
func ContentionSensitivity(r *Runner) (SensitivityResult, error) {
	out := SensitivityResult{Speedups: map[string][]float64{}, Boxes: map[string]metrics.BoxStats{}}
	mixes := r.DualMixes()
	pairs := make([][2]float64, len(mixes))
	err := r.ForEach(len(mixes), func(i int) error {
		sa, sb, err := r.mixSpeedups(mixes[i][0], mixes[i][1], sim.ShareDWT)
		pairs[i] = [2]float64{sa, sb}
		return err
	})
	if err != nil {
		return SensitivityResult{}, err
	}
	for i, mix := range mixes {
		out.Speedups[mix[0]] = append(out.Speedups[mix[0]], pairs[i][0])
		out.Speedups[mix[1]] = append(out.Speedups[mix[1]], pairs[i][1])
	}
	for w, sp := range out.Speedups {
		out.Boxes[w] = metrics.Box(sp)
	}
	return out, nil
}
