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

// MixScore holds one mix's outcome at one level of a study.
type MixScore struct {
	Workloads []string
	Speedups  []float64
	Geomean   float64
	Fairness  float64
}

// Scores is the outcome of a mix x level study (a Grid): one MixScore
// per mix at each level, in grid order. It is the one scoring type of
// the paper's grids: SharingResult is Scores over sharing levels, and
// the partitioning and ablation results embed Scores over scheme names.
type Scores[K comparable] struct {
	// Cores is the number of workloads in each mix.
	Cores  int
	Levels []K
	// Mixes[level] holds one score per mix.
	Mixes map[K][]MixScore
}

// SharingResult reproduces Figs 4-7: per-mix geomean speedup and
// fairness for each sharing level, on dual- or quad-core NPUs.
type SharingResult = Scores[sim.Sharing]

// OverallGeomean returns the geometric mean of per-mix geomean speedups
// at one level (the headline numbers of §4.2.1).
func (s Scores[K]) OverallGeomean(level K) float64 {
	return metrics.MustGeomean(s.GeomeanCDFValues(level))
}

// OverallFairness returns the arithmetic mean fairness at one level
// (§4.2.2 reports averages).
func (s Scores[K]) OverallFairness(level K) float64 {
	return metrics.Mean(s.FairnessCDFValues(level))
}

// PerWorkloadGeomean returns, for each workload, the geometric mean of
// its speedups over every mix containing it — the per-workload bars of
// Figs 4, 6 and 9.
func (s Scores[K]) PerWorkloadGeomean(level K) map[string]float64 {
	acc := map[string][]float64{}
	for _, m := range s.Mixes[level] {
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
func (s Scores[K]) GeomeanCDFValues(level K) []float64 {
	sc := s.Mixes[level]
	out := make([]float64, len(sc))
	for i, m := range sc {
		out[i] = m.Geomean
	}
	return out
}

// FairnessCDFValues returns the per-mix fairness values at one level.
func (s Scores[K]) FairnessCDFValues(level K) []float64 {
	sc := s.Mixes[level]
	out := make([]float64, len(sc))
	for i, m := range sc {
		out[i] = m.Fairness
	}
	return out
}

// String summarizes a sharing study's headline rows. The partitioning
// and ablation results print their own titles over the same rows.
func (s Scores[K]) String() string {
	n := 0
	if len(s.Levels) > 0 {
		n = len(s.Mixes[s.Levels[0]])
	}
	return s.summary(fmt.Sprintf("%d-core sharing study (%d mixes)", s.Cores, n), 7)
}

// summary renders title, then one geomean and fairness row per level
// with the level padded to width.
func (s Scores[K]) summary(title string, width int) string {
	var b strings.Builder
	b.WriteString(title + ":\n")
	for _, lv := range s.Levels {
		fmt.Fprintf(&b, "  %-*v geomean=%.3f fairness=%.3f\n", width, lv, s.OverallGeomean(lv), s.OverallFairness(lv))
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

// Grid is a mix x level study as data: every mix run at every level,
// each core's cycles divided by its workload's baseline cycles. Each is
// the one executor of the paper's grids (the sharing study of §4.2, the
// bandwidth and walker partitioning of Figs 9-10 and 13-14, the
// bandwidth and page-size sweeps of Figs 11, 15 and 16, attribution,
// and the ablations), and the serving layer's sweeps run a SharingGrid
// through it with jobs as units.
type Grid[K comparable] struct {
	Cores  int
	Levels []K
	Mixes  [][]string
	// Config builds the system of one mix at Levels[level]. Nil means
	// the standard system at the level, which needs sim.Sharing levels.
	Config func(mix []string, level int) (sim.Config, error)
	// Baseline builds the system whose core-0 cycles a workload's
	// speedups are divided into. Nil means its solo Ideal (§4.1.3).
	Baseline func(workload string) (sim.Config, error)
}

// SharingGrid is the paper's central study (§4.2, Figs 4-7): every mix
// at every sharing level on the standard system, against solo Ideals.
type SharingGrid = Grid[sim.Sharing]

// Len returns the number of cells, len(Mixes) x len(Levels).
func (g Grid[K]) Len() int { return len(g.Mixes) * len(g.Levels) }

// Cell returns cell i of the mix-major, level-minor enumeration.
func (g Grid[K]) Cell(i int) (mix []string, level K) {
	nl := len(g.Levels)
	return g.Mixes[i/nl], g.Levels[i%nl]
}

// Ideals lists the grid's distinct workloads in first-appearance order:
// the baseline runs its speedups are normalized to.
func (g Grid[K]) Ideals() []string {
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

// Units returns the number of simulations the grid runs: its cells,
// then one baseline per workload in Ideals order.
func (g Grid[K]) Units() int { return g.Len() + len(g.Ideals()) }

// Unit names unit i: cell i's mix and level while i < Len(), then one
// workload's baseline (that workload alone, the zero level, and
// baseline true).
func (g Grid[K]) Unit(i int) (mix []string, level K, baseline bool) {
	if i < g.Len() {
		mix, level = g.Cell(i)
		return mix, level, false
	}
	return []string{g.Ideals()[i-g.Len()]}, level, true
}

// UnitConfig builds unit i's system at r's scale: a cell with Config,
// or as the standard system at its sharing level; a baseline with
// Baseline, or as the workload's Ideal.
func (g Grid[K]) UnitConfig(r *Runner, i int) (sim.Config, error) {
	mix, lv, baseline := g.Unit(i)
	switch {
	case baseline && g.Baseline != nil:
		return g.Baseline(mix[0])
	case baseline:
		return sim.NewIdealConfig(r.opts.Scale, mix[0])
	case g.Config != nil:
		return g.Config(mix, i%len(g.Levels))
	}
	level, ok := any(lv).(sim.Sharing)
	if !ok {
		return sim.Config{}, fmt.Errorf("experiments: a grid of %T levels needs a Config", lv)
	}
	return sim.NewWorkloadConfig(r.opts.Scale, level, mix...)
}

// Each runs fn on every unit's config on r's worker pool and scores the
// per-core cycles fn returns for each unit. fn decides how a unit runs:
// through r's memo (Run), with an attribution engine attached
// (DualAttribution), or as a job on the serving daemon's queue. The
// scores are identical at any worker count.
func (g Grid[K]) Each(r *Runner, fn func(i int, cfg sim.Config) ([]int64, error)) (Scores[K], error) {
	units := make([][]int64, g.Units())
	err := r.ForEach(len(units), func(i int) error {
		cfg, err := g.UnitConfig(r, i)
		if err != nil {
			return err
		}
		units[i], err = fn(i, cfg)
		return err
	})
	if err != nil {
		return Scores[K]{}, err
	}
	n := g.Len()
	ideal := make(map[string]int64)
	for k, w := range g.Ideals() {
		if cycles := units[n+k]; len(cycles) > 0 {
			ideal[w] = cycles[0]
		}
	}
	return g.Score(units[:n], ideal)
}

// Run simulates the grid's units through r's memo and scores them.
func (g Grid[K]) Run(r *Runner) (Scores[K], error) {
	return g.Each(r, func(_ int, cfg sim.Config) ([]int64, error) {
		res, err := r.result(cfg)
		return coreCycles(res), err
	})
}

// coreCycles lists a result's per-core cycles.
func coreCycles(res sim.Result) []int64 {
	out := make([]int64, len(res.Cores))
	for k, c := range res.Cores {
		out[k] = c.Cycles
	}
	return out
}

// Score turns measured cycles into Scores: cells[i] holds cell i's
// per-core cycles and ideal each workload's baseline cycles.
func (g Grid[K]) Score(cells [][]int64, ideal map[string]int64) (Scores[K], error) {
	if len(cells) != g.Len() {
		return Scores[K]{}, fmt.Errorf("experiments: %d cell results for a %d-cell grid", len(cells), g.Len())
	}
	out := Scores[K]{Cores: g.Cores, Levels: g.Levels, Mixes: make(map[K][]MixScore)}
	for i, cycles := range cells {
		mix, lv := g.Cell(i)
		if len(cycles) < len(mix) {
			return Scores[K]{}, fmt.Errorf("experiments: %v %v: %d core results for %d workloads",
				mix, lv, len(cycles), len(mix))
		}
		sp := make([]float64, len(mix))
		for k, w := range mix {
			ib, ok := ideal[w]
			if !ok {
				return Scores[K]{}, fmt.Errorf("experiments: no ideal baseline for %s", w)
			}
			sp[k] = metrics.Speedup(ib, cycles[k])
		}
		out.Mixes[lv] = append(out.Mixes[lv], newMixScore(mix, sp))
	}
	return out, nil
}

// soloGrid is the grid of each workload alone at every level, whose
// baseline is the workload at the first level (Figs 11 and 15).
func soloGrid[K comparable](r *Runner, levels []K, config func(mix []string, level int) (sim.Config, error)) Grid[K] {
	mixes := make([][]string, len(r.Names()))
	for i, w := range r.Names() {
		mixes[i] = []string{w}
	}
	return Grid[K]{
		Cores: 1, Levels: levels, Mixes: mixes, Config: config,
		Baseline: func(w string) (sim.Config, error) { return config([]string{w}, 0) },
	}
}

// soloSpeedups reads a soloGrid's scores as each workload's speedups,
// one per level.
func (s Scores[K]) soloSpeedups() map[string][]float64 {
	out := map[string][]float64{}
	for _, lv := range s.Levels {
		for _, m := range s.Mixes[lv] {
			out[m.Workloads[0]] = append(out[m.Workloads[0]], m.Speedups[0])
		}
	}
	return out
}

// DualCoreSharing runs Fig 4 (performance) and Fig 6 (fairness): all 36
// dual-core mixes under Static, +D, +DW, +DWT, normalized to Ideal.
func DualCoreSharing(r *Runner) (SharingResult, error) {
	return SharingGrid{Cores: 2, Levels: sim.Levels(), Mixes: Mixes(r.Names(), 2, 0, 0)}.Run(r)
}

// Mixes enumerates the M(len(names), cores) workload mixes in the
// deterministic multiset order, optionally sampled. With seed 0 the
// sample keeps every k-th mix (k = population/sample rounded down, the
// stride the quad experiments have always used), so it keeps at least
// sample mixes and can keep a few more; a non-zero seed instead keeps a
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

// QuadMixes enumerates the 330 quad-core mixes, optionally sampled:
// every k-th mix of the deterministic order, k = 330/sample rounded
// down, which keeps at least sample mixes and can keep a few more
// (sample 40 keeps 42).
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

// ContentionSensitivity runs Fig 8 over the dual +DWT mixes.
func ContentionSensitivity(r *Runner) (SensitivityResult, error) {
	scores, err := dualDWT(r)
	if err != nil {
		return SensitivityResult{}, err
	}
	out := SensitivityResult{Speedups: map[string][]float64{}, Boxes: map[string]metrics.BoxStats{}}
	for _, m := range scores {
		for k, w := range m.Workloads {
			out.Speedups[w] = append(out.Speedups[w], m.Speedups[k])
		}
	}
	for w, sp := range out.Speedups {
		out.Boxes[w] = metrics.Box(sp)
	}
	return out, nil
}

// dualDWT scores the 36 dual-core mixes at +DWT, in Mixes order: Fig 4's
// +DWT cells, which Figs 8 and 17 read.
func dualDWT(r *Runner) ([]MixScore, error) {
	res, err := SharingGrid{Cores: 2, Levels: []sim.Sharing{sim.ShareDWT}, Mixes: Mixes(r.Names(), 2, 0, 0)}.Run(r)
	if err != nil {
		return nil, err
	}
	return res.Mixes[sim.ShareDWT], nil
}
