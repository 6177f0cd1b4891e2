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
// address translation removed to isolate the DRAM effect. Its levels
// are the scheme names.
type BWPartitionResult struct {
	Scores[string]
	// StaticBest[workload] is the best per-workload geomean across the
	// five static schemes.
	StaticBest map[string]float64
}

func (r BWPartitionResult) String() string {
	return r.summary("DRAM bandwidth partitioning (dual-core, translation removed)", 8)
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

// bwConfig builds the no-translation config of mix with a channel
// split.
func bwConfig(r *Runner, mix []string, scheme BWScheme) (sim.Config, error) {
	level := sim.Static
	if scheme.Slices == [2]int{} {
		level = sim.ShareD
	}
	cfg, err := sim.NewWorkloadConfig(r.opts.Scale, level, mix...)
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

// BandwidthPartitioning runs Figs 9-10 over the 36 dual mixes, each core
// against its no-translation Ideal on the 8-slice device.
func BandwidthPartitioning(r *Runner) (BWPartitionResult, error) {
	schemes := BWPartitionSchemes()
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.Name
	}
	res, err := Grid[string]{
		Cores: 2, Levels: names, Mixes: Mixes(r.Names(), 2, 0, 0),
		Config: func(mix []string, scheme int) (sim.Config, error) {
			return bwConfig(r, mix, schemes[scheme])
		},
		Baseline: func(w string) (sim.Config, error) {
			cfg, err := bwConfig(r, []string{w, w}, BWScheme{})
			if err != nil {
				return sim.Config{}, err
			}
			return sim.IdealFor(cfg, 0), nil
		},
	}.Run(r)
	if err != nil {
		return BWPartitionResult{}, err
	}
	out := BWPartitionResult{Scores: res, StaticBest: map[string]float64{}}
	for _, s := range schemes {
		if s.Slices == [2]int{} {
			continue
		}
		per := res.PerWorkloadGeomean(s.Name)
		for _, w := range r.Names() {
			out.StaticBest[w] = max(out.StaticBest[w], per[w])
		}
	}
	return out, nil
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
	var factors []int
	for _, pt := range points {
		factors = append(factors, pt.factor)
	}
	res, err := soloGrid(r, factors, func(mix []string, point int) (sim.Config, error) {
		cfg, err := sim.NewWorkloadConfig(r.opts.Scale, sim.Ideal, mix...)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.NoTranslation = true
		cfg.DRAM = dram.HBM2Scaled(points[point].channels, points[point].bl2)
		return cfg, nil
	}).Run(r)
	if err != nil {
		return BWSweepResult{}, err
	}
	return BWSweepResult{Factors: factors, Speedup: res.soloSpeedups()}, nil
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
		cfg, err := sim.NewIdealConfig(r.opts.Scale, w)
		if err != nil {
			return nil, err
		}
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
