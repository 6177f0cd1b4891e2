package experiments

import (
	"fmt"
	"strings"

	"mnpusim/internal/dram"
	"mnpusim/internal/metrics"
	"mnpusim/internal/sim"
	"mnpusim/internal/trace"
	"mnpusim/internal/workloads"
)

// BurstinessResult reproduces Fig 2(b): the moving average of memory
// requests between SPM and off-chip memory over 1000-cycle windows, for
// NCF on a single-core NPU.
type BurstinessResult struct {
	Workload string
	Window   int64
	// Rates is the per-window request rate (requests per cycle),
	// smoothed with a moving average as in the paper.
	Rates []float64
	Peak  float64
	Mean  float64
}

func (b BurstinessResult) String() string {
	return fmt.Sprintf("burstiness %s: %d windows of %d cycles, peak=%.3f req/cyc, mean=%.3f req/cyc (peak/mean=%.1fx)",
		b.Workload, len(b.Rates), b.Window, b.Peak, b.Mean, b.Peak/b.Mean)
}

// Burstiness runs Fig 2(b) for the named workload (the paper uses ncf).
func Burstiness(r *Runner, workload string) (BurstinessResult, error) {
	rec, err := trace.NewRateRecorder(1000)
	if err != nil {
		return BurstinessResult{}, err
	}
	base, err := sim.NewWorkloadConfig(r.opts.Scale, sim.Static, workload)
	if err != nil {
		return BurstinessResult{}, err
	}
	cfg := sim.IdealFor(base, 0)
	cfg.Obs = rec // the recorder consumes KindDMAIssue probe events
	if _, err := r.run(cfg); err != nil {
		return BurstinessResult{}, err
	}
	rates := rec.MovingAverage(4)
	out := BurstinessResult{Workload: workload, Window: rec.Window(), Rates: rates}
	for _, v := range rates {
		if v > out.Peak {
			out.Peak = v
		}
	}
	out.Mean = metrics.Mean(rates)
	return out, nil
}

// BWScheme is one bandwidth-partitioning scheme of §4.3.
type BWScheme struct {
	Name string
	// Slices gives each core's share of the 8 bandwidth slices; nil
	// means fully dynamic sharing.
	Slices [2]int
}

// BWPartitionSchemes returns the paper's five static ratios plus the
// dynamic scheme (Figs 9-10).
func BWPartitionSchemes() []BWScheme {
	return []BWScheme{
		{Name: "1:7", Slices: [2]int{1, 7}},
		{Name: "2:6", Slices: [2]int{2, 6}},
		{Name: "4:4", Slices: [2]int{4, 4}},
		{Name: "6:2", Slices: [2]int{6, 2}},
		{Name: "7:1", Slices: [2]int{7, 1}},
		{Name: "dynamic"},
	}
}

// BWPartitionResult reproduces Figs 9 and 10: performance and fairness
// of each bandwidth-partitioning scheme on the dual-core NPU, with
// address translation removed to isolate the DRAM effect.
type BWPartitionResult struct {
	Schemes []string
	// Mixes[scheme] holds one score per dual mix.
	Mixes map[string][]MixScore
	// StaticBest[workload] is the best per-workload geomean across the
	// five static schemes.
	StaticBest map[string]float64
}

// OverallGeomean returns the geomean of per-mix geomeans for a scheme.
func (r BWPartitionResult) OverallGeomean(scheme string) float64 {
	vals := make([]float64, len(r.Mixes[scheme]))
	for i, m := range r.Mixes[scheme] {
		vals[i] = m.Geomean
	}
	return metrics.MustGeomean(vals)
}

// OverallFairness returns mean fairness for a scheme.
func (r BWPartitionResult) OverallFairness(scheme string) float64 {
	vals := make([]float64, len(r.Mixes[scheme]))
	for i, m := range r.Mixes[scheme] {
		vals[i] = m.Fairness
	}
	return metrics.Mean(vals)
}

// PerWorkloadGeomean mirrors Fig 9's per-workload bars.
func (r BWPartitionResult) PerWorkloadGeomean(scheme string) map[string]float64 {
	acc := map[string][]float64{}
	for _, m := range r.Mixes[scheme] {
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

func (r BWPartitionResult) String() string {
	var b strings.Builder
	b.WriteString("DRAM bandwidth partitioning (dual-core, translation removed):\n")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, "  %-8s geomean=%.3f fairness=%.3f\n", s, r.OverallGeomean(s), r.OverallFairness(s))
	}
	return b.String()
}

// bwDevice builds the 8-slice device used by the partitioning study:
// same total bandwidth as the standard dual-core system, split over 8
// channels so 1:7 ... 7:1 ratios are expressible.
func bwDevice(scale workloads.Scale) dram.Config {
	p := sim.ParamsFor(scale)
	perCoreCh := p.ChannelsPerCore
	// total channels would be 2*perCoreCh; stretch to 8 slices with
	// proportionally narrower channels.
	factor := 8 / (2 * perCoreCh)
	if factor < 1 {
		factor = 1
	}
	return dram.HBM2Scaled(8, p.BL2*factor)
}

// bwConfig builds the no-translation dual config with a channel split.
func bwConfig(r *Runner, a, b string, scheme BWScheme) (sim.Config, error) {
	level := sim.Static
	if scheme.Slices == [2]int{} {
		level = sim.ShareD
	}
	cfg, err := sim.NewWorkloadConfig(r.opts.Scale, level, a, b)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.NoTranslation = true
	cfg.DRAM = bwDevice(r.opts.Scale)
	if scheme.Slices != [2]int{} {
		part := make([][]int, 2)
		next := 0
		for core, n := range scheme.Slices {
			for k := 0; k < n; k++ {
				part[core] = append(part[core], next)
				next++
			}
		}
		cfg.ChannelPartition = part
	}
	return cfg, nil
}

// BandwidthPartitioning runs Figs 9-10.
func BandwidthPartitioning(r *Runner) (BWPartitionResult, error) {
	schemes := BWPartitionSchemes()
	out := BWPartitionResult{Mixes: map[string][]MixScore{}, StaticBest: map[string]float64{}}
	for _, s := range schemes {
		out.Schemes = append(out.Schemes, s.Name)
	}

	// No-translation Ideal baselines on the 8-slice device.
	names := r.Names()
	idealCycles := make([]int64, len(names))
	err := r.ForEach(len(names), func(i int) error {
		cfg, err := bwConfig(r, names[i], names[i], BWScheme{})
		if err != nil {
			return err
		}
		res, err := r.run(sim.IdealFor(cfg, 0))
		if err != nil {
			return fmt.Errorf("experiments: bw ideal %s: %w", names[i], err)
		}
		idealCycles[i] = res.Cores[0].Cycles
		return nil
	})
	if err != nil {
		return BWPartitionResult{}, err
	}
	ideal := map[string]int64{}
	for i, w := range names {
		ideal[w] = idealCycles[i]
	}

	mixes := r.DualMixes()
	ns := len(schemes)
	scores := make([]MixScore, len(mixes)*ns)
	err = r.ForEach(len(scores), func(i int) error {
		mix, s := mixes[i/ns], schemes[i%ns]
		cfg, err := bwConfig(r, mix[0], mix[1], s)
		if err != nil {
			return err
		}
		res, err := r.run(cfg)
		if err != nil {
			return fmt.Errorf("experiments: bw %s+%s %s: %w", mix[0], mix[1], s.Name, err)
		}
		r.logf("bw %s+%s %s done", mix[0], mix[1], s.Name)
		sp := []float64{
			metrics.Speedup(ideal[mix[0]], res.Cores[0].Cycles),
			metrics.Speedup(ideal[mix[1]], res.Cores[1].Cycles),
		}
		scores[i] = newMixScore(mix[:], sp)
		return nil
	})
	if err != nil {
		return BWPartitionResult{}, err
	}
	for i, sc := range scores {
		name := schemes[i%ns].Name
		out.Mixes[name] = append(out.Mixes[name], sc)
	}
	// Static Best per workload.
	for _, w := range r.Names() {
		best := 0.0
		for _, s := range schemes {
			if s.Slices == [2]int{} {
				continue
			}
			if v := r.perWorkloadGeo(out.Mixes[s.Name], w); v > best {
				best = v
			}
		}
		out.StaticBest[w] = best
	}
	return out, nil
}

func (r *Runner) perWorkloadGeo(mixes []MixScore, w string) float64 {
	var vals []float64
	for _, m := range mixes {
		for i, name := range m.Workloads {
			if name == w {
				vals = append(vals, m.Speedups[i])
			}
		}
	}
	if len(vals) == 0 {
		return 0
	}
	return metrics.MustGeomean(vals)
}

// BWSweepResult reproduces Fig 11: single-core speedup versus DRAM
// bandwidth, normalized to the lowest point (the paper's 32 GB/s).
type BWSweepResult struct {
	// Factors are the bandwidth multipliers relative to the lowest
	// point (the paper sweeps 32, 64, 128, 256 GB/s: 1x..8x).
	Factors []int
	// Speedup[workload][i] is performance at Factors[i] over Factors[0].
	Speedup map[string][]float64
}

func (r BWSweepResult) String() string {
	var b strings.Builder
	b.WriteString("speedup vs DRAM bandwidth (single-core, normalized to lowest):\n")
	for _, w := range workloads.Names() {
		fmt.Fprintf(&b, "  %-6s", w)
		for i := range r.Factors {
			fmt.Fprintf(&b, " x%d=%.2f", r.Factors[i], r.Speedup[w][i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BandwidthSweep runs Fig 11: each workload alone, with DRAM bandwidth
// swept from 1x to 8x of the minimum (translation removed, as in §4.3).
func BandwidthSweep(r *Runner) (BWSweepResult, error) {
	p := sim.ParamsFor(r.opts.Scale)
	points := []struct {
		factor   int
		channels int
		bl2      int
	}{
		{1, 1, p.BL2 * 2},
		{2, 1, p.BL2},
		{4, 2, p.BL2},
		{8, 4, p.BL2},
	}
	out := BWSweepResult{Speedup: map[string][]float64{}}
	for _, pt := range points {
		out.Factors = append(out.Factors, pt.factor)
	}
	names := r.Names()
	np := len(points)
	cycles := make([]int64, len(names)*np)
	err := r.ForEach(len(cycles), func(i int) error {
		w, pt := names[i/np], points[i%np]
		cfg, err := sim.NewWorkloadConfig(r.opts.Scale, sim.Ideal, w)
		if err != nil {
			return err
		}
		cfg.NoTranslation = true
		cfg.DRAM = dram.HBM2Scaled(pt.channels, pt.bl2)
		res, err := r.run(cfg)
		if err != nil {
			return fmt.Errorf("experiments: sweep %s x%d: %w", w, pt.factor, err)
		}
		cycles[i] = res.Cores[0].Cycles
		return nil
	})
	if err != nil {
		return BWSweepResult{}, err
	}
	for wi, w := range names {
		sp := make([]float64, np)
		for i := 0; i < np; i++ {
			sp[i] = float64(cycles[wi*np]) / float64(cycles[wi*np+i])
		}
		out.Speedup[w] = sp
		r.logf("sweep %s done", w)
	}
	return out, nil
}

// BWTimelineResult reproduces Fig 12: DRAM bandwidth utilization over
// time for ds2 and gpt2 run separately on the dual-core Ideal
// configuration, plus their sum, normalized to the dual-core peak.
type BWTimelineResult struct {
	Window int64
	A, B   string
	UtilA  []float64
	UtilB  []float64
	Sum    []float64
	// FracAboveHalf is the fraction of windows where a workload alone
	// demands more than half the peak — the paper's evidence that
	// equal static partitioning caps real demand.
	FracAboveHalfA float64
	FracAboveHalfB float64
	// FracSumAbovePeak is the fraction of windows where combined
	// demand exceeds the peak (y > 1.0 in Fig 12).
	FracSumAbovePeak float64
}

func (r BWTimelineResult) String() string {
	return fmt.Sprintf("bandwidth timeline %s/%s: P(%s>0.5)=%.2f P(%s>0.5)=%.2f P(sum>1.0)=%.2f",
		r.A, r.B, r.A, r.FracAboveHalfA, r.B, r.FracAboveHalfB, r.FracSumAbovePeak)
}

// BandwidthTimeline runs Fig 12 for workloads a and b (the paper uses
// ds2 and gpt2).
func BandwidthTimeline(r *Runner, a, b string) (BWTimelineResult, error) {
	const window = 1000
	p := sim.ParamsFor(r.opts.Scale)
	peak := 2 * p.PerCoreBandwidth() // dual-core aggregate, bytes/cycle

	runOne := func(w string) ([]float64, error) {
		rec, err := trace.NewBandwidthRecorder(1, window)
		if err != nil {
			return nil, err
		}
		base, err := sim.NewWorkloadConfig(r.opts.Scale, sim.Static, w, w)
		if err != nil {
			return nil, err
		}
		cfg := sim.IdealFor(base, 0)
		cfg.Obs = rec // the recorder consumes KindTransfer probe events
		if _, err := r.run(cfg); err != nil {
			return nil, err
		}
		return rec.Utilization(0, peak), nil
	}

	utils := make([][]float64, 2)
	err := r.ForEach(2, func(i int) error {
		w := a
		if i == 1 {
			w = b
		}
		u, err := runOne(w)
		utils[i] = u
		return err
	})
	if err != nil {
		return BWTimelineResult{}, err
	}
	ua, ub := utils[0], utils[1]
	n := max(len(ua), len(ub))
	sum := make([]float64, n)
	for i := range sum {
		if i < len(ua) {
			sum[i] += ua[i]
		}
		if i < len(ub) {
			sum[i] += ub[i]
		}
	}
	frac := func(xs []float64, thresh float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		n := 0
		for _, v := range xs {
			if v > thresh {
				n++
			}
		}
		return float64(n) / float64(len(xs))
	}
	return BWTimelineResult{
		Window: window, A: a, B: b,
		UtilA: ua, UtilB: ub, Sum: sum,
		FracAboveHalfA:   frac(ua, 0.5),
		FracAboveHalfB:   frac(ub, 0.5),
		FracSumAbovePeak: frac(sum, 1.0),
	}, nil
}
