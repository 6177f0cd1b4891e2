package experiments

import (
	"fmt"

	"mnpusim/internal/dram"
	"mnpusim/internal/sim"
	"mnpusim/internal/systolic"
)

// ablationMixes is the subset of dual mixes used by the design-choice
// ablations: one compute-heavy pair, one memory-heavy pair, and two
// mixed pairs — enough to expose each mechanism without a full sweep.
func ablationMixes() [][]string {
	return [][]string{
		{"res", "gpt2"},
		{"sfrnn", "dlrm"},
		{"sfrnn", "gpt2"},
		{"dlrm", "yt"},
	}
}

// SweepResult is a labelled ablation outcome: the ablation mixes scored
// against Ideal at each setting. Its levels are the setting labels.
type SweepResult struct {
	Name string
	Scores[string]
}

func (s SweepResult) String() string { return s.summary(s.Name, 10) }

// runAblation runs the ablation mixes at +DWT with a config mutator per
// setting, each core against its standard Ideal.
func runAblation(r *Runner, name string, labels []string, mutate func(cfg *sim.Config, setting int)) (SweepResult, error) {
	res, err := Grid[string]{
		Cores: 2, Levels: labels, Mixes: ablationMixes(),
		Config: func(mix []string, setting int) (sim.Config, error) {
			cfg, err := sim.NewWorkloadConfig(r.opts.Scale, sim.ShareDWT, mix...)
			if err != nil {
				return sim.Config{}, err
			}
			mutate(&cfg, setting)
			return cfg, nil
		},
	}.Run(r)
	return SweepResult{Name: name, Scores: res}, err
}

// TLBAssociativity reproduces the §4.4.2 observation: with a shared TLB
// below 8 ways, inter-NPU conflict misses degrade performance.
func TLBAssociativity(r *Runner) (SweepResult, error) {
	assocs := []int{1, 2, 4, 8, 16}
	labels := make([]string, len(assocs))
	for i, a := range assocs {
		labels[i] = fmt.Sprintf("%d-way", a)
	}
	return runAblation(r, "shared TLB associativity (+DWT dual)", labels, func(cfg *sim.Config, si int) {
		cfg.TLBAssoc = assocs[si]
	})
}

// WalkerCount sweeps the per-core walker count, showing how walker
// bandwidth gates translation-heavy workloads.
func WalkerCount(r *Runner) (SweepResult, error) {
	counts := []int{1, 2, 4, 8}
	labels := make([]string, len(counts))
	for i, c := range counts {
		labels[i] = fmt.Sprintf("%d/core", c)
	}
	return runAblation(r, "walkers per core (+DWT dual)", labels, func(cfg *sim.Config, si int) {
		cfg.PTWPerCore = counts[si]
	})
}

// DoubleBuffering compares the tile pipeline with and without the
// load/compute overlap of Fig 2(a).
func DoubleBuffering(r *Runner) (SweepResult, error) {
	labels := []string{"overlap", "no-overlap"}
	return runAblation(r, "double buffering (+DWT dual)", labels, func(cfg *sim.Config, si int) {
		if si == 1 {
			for i := range cfg.Arch {
				cfg.Arch[i].NoDoubleBuffer = true
			}
		}
	})
}

// SchedulingPolicy compares FR-FCFS with plain FCFS memory scheduling.
func SchedulingPolicy(r *Runner) (SweepResult, error) {
	labels := []string{"FR-FCFS", "FCFS"}
	return runAblation(r, "DRAM scheduling (+DWT dual)", labels, func(cfg *sim.Config, si int) {
		if si == 1 {
			cfg.DRAM.Policy = dram.FCFS
		}
	})
}

// WalkMemoryModel compares the fixed-latency NeuMMU-style walk timing
// (the default, matching the paper) with fully DRAM-backed walks where
// PTE reads contend with data traffic.
func WalkMemoryModel(r *Runner) (SweepResult, error) {
	labels := []string{"fixed-latency", "dram-backed"}
	return runAblation(r, "walk memory model (+DWT dual)", labels, func(cfg *sim.Config, si int) {
		if si == 1 {
			cfg.DRAMBackedWalks = true
		}
	})
}

// Dataflows compares the paper's output-stationary dataflow with the
// weight-stationary mapping it lists as future work.
func Dataflows(r *Runner) (SweepResult, error) {
	labels := []string{"output-stat", "weight-stat"}
	return runAblation(r, "systolic dataflow (+DWT dual)", labels, func(cfg *sim.Config, si int) {
		if si == 1 {
			for i := range cfg.Arch {
				cfg.Arch[i].Dataflow = systolic.WeightStationary
			}
		}
	})
}

// WalkerStealing compares equal-static walker partitioning, the paper's
// fully dynamic FCFS pool, and DWS-style stealing.
func WalkerStealing(r *Runner) (SweepResult, error) {
	labels := []string{"static", "dynamic", "dws"}
	return runAblation(r, "walker sharing policy (dual)", labels, func(cfg *sim.Config, si int) {
		switch si {
		case 0:
			p := sim.ParamsFor(r.opts.Scale)
			cfg.WalkerMin = []int{p.PTWs, p.PTWs}
			cfg.WalkerMax = []int{p.PTWs, p.PTWs}
		case 2:
			cfg.DWSWalkerStealing = true
		}
	})
}

// DMAIssueWidth sweeps the DMA engine's per-cycle issue width.
func DMAIssueWidth(r *Runner) (SweepResult, error) {
	widths := []int{1, 2, 4, 8}
	labels := make([]string, len(widths))
	for i, w := range widths {
		labels[i] = fmt.Sprintf("%d/cycle", w)
	}
	return runAblation(r, "DMA issue width (+DWT dual)", labels, func(cfg *sim.Config, si int) {
		for i := range cfg.Arch {
			cfg.Arch[i].DMAIssuePerCycle = widths[si]
		}
	})
}
