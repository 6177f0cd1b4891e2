package main

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"time"

	"mnpusim/internal/serve/api"
	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

// workload is one benchmark workload. units lists every configuration
// any seed can produce, which is what the golden file covers.
type workload interface {
	run(ctx context.Context, e *env, traced bool) (*outcome, error)
	units() []unit
}

// benchWorkloads are the four workloads, sized so one untraced run of
// each measures about --seconds on a 2-CPU host (README.md says why each
// was chosen).
//
// The mix sets are fixed rather than drawn from the seed: a random draw
// of dual mixes changes the work per run by up to 10x (one tiny-scale
// simulation takes 0.07 s to 5 s), which no per-seed bound could absorb.
// A sweep runs every mix in both core placements, so its seed only
// orders the runs; in the serve workloads the seed picks each mix's core
// placement, the arrival times and the repeat choices.
func benchWorkloads() map[string]workload {
	return map[string]workload{
		// Figs 4/6: three mixes, in both core placements, at the four
		// sharing levels, plus the Ideal of every workload in them.
		"sweep-dual": sweepWorkload{
			mixes:  [][2]string{{"alex", "dlrm"}, {"sfrnn", "ncf"}, {"dlrm", "gpt2"}},
			levels: sim.Levels(),
		},
		// Fig 9: the same shape at two levels with translation removed, so
		// TLB, walkers and MSHRs do no work while the DRAM path is busier
		// than with translation.
		"notrans-dual": sweepWorkload{
			mixes:   [][2]string{{"alex", "dlrm"}, {"sfrnn", "ncf"}, {"res", "dlrm"}},
			levels:  []sim.Sharing{sim.Static, sim.ShareD},
			noTrans: true,
		},
		// Open-loop job traffic at 10 jobs/s: 8 hot configurations cached
		// during set-up, and 15 cold ones from 0.3 s to about 5.5 s of
		// simulation arriving among the repeats. They keep the daemon's
		// workers busy about a quarter of the time on a quiet host: with
		// more, the median job (a cache hit) waits on simulations holding
		// both CPUs in some runs and not in others, the more so the
		// slower the host (README.md, Load).
		"serve-mixed": mixedWorkload{
			hot: concat(mixUnits(dlrmNCF, sim.Levels(), false), idealUnits(false, "dlrm", "ncf", "alex", "sfrnn")),
			cold: concat(
				mixUnits([][2]string{{"alex", "dlrm"}, {"sfrnn", "ncf"}, {"res", "dlrm"}}, sim.Levels(), false),
				idealUnits(false, "res", "gpt2"),
				[]unit{{mix: []string{"yt", "ds2"}, level: sim.Static}}),
			rate:   10,
			settle: 8 * time.Second,
		},
		// Cache hits only, from the memory and the disk tier: 16 cheap
		// configurations, with and without translation.
		"serve-warm": warmWorkload{
			population: concat(
				mixUnits(dlrmNCF, sim.Levels(), false),
				mixUnits(dlrmNCF, []sim.Sharing{sim.Static, sim.ShareD}, true),
				idealUnits(false, "res", "alex", "sfrnn", "dlrm", "ncf"),
				idealUnits(true, "res", "alex", "sfrnn", "dlrm", "ncf")),
			memEntries: 8,
			rate:       250,
			sample:     20,
		},
	}
}

// dlrmNCF is the cheapest dual mix (0.1 to 0.2 s per simulation).
var dlrmNCF = [][2]string{{"dlrm", "ncf"}}

func concat(lists ...[]unit) []unit {
	var out []unit
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

func workloadNames() []string {
	var names []string
	for n := range benchWorkloads() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// unit is one simulation configuration.
type unit struct {
	// mix names one workload per core; an Ideal names one.
	mix     []string
	level   sim.Sharing
	noTrans bool
}

// label names the configuration in golden files and traces, e.g.
// "alex+dlrm/+dwt" or "gpt2/ideal/nt".
func (u unit) label() string {
	s := strings.Join(u.mix, "+") + "/" + levelName(u.level)
	if u.noTrans {
		s += "/nt"
	}
	return s
}

// levelName is the sharing level as the job API spells it.
func levelName(s sim.Sharing) string { return strings.ToLower(s.String()) }

// config builds the configuration in-process, the way api.JobSpec and
// experiments.Runner do: an Ideal is core 0 of a (w, w) static system
// given the whole resource pool.
func (u unit) config() (sim.Config, error) {
	if u.level == sim.Ideal {
		base, err := sim.NewWorkloadConfig(workloads.ScaleTiny, sim.Static, u.mix[0], u.mix[0])
		if err != nil {
			return sim.Config{}, err
		}
		cfg := sim.IdealFor(base, 0)
		cfg.NoTranslation = u.noTrans
		return cfg, nil
	}
	cfg, err := sim.NewWorkloadConfig(workloads.ScaleTiny, u.level, u.mix...)
	cfg.NoTranslation = u.noTrans
	return cfg, err
}

// spec is the same configuration as a job submission.
func (u unit) spec() api.JobSpec {
	s := api.JobSpec{Workloads: u.mix, Scale: "tiny", NoTranslation: u.noTrans}
	if u.level == sim.Ideal {
		s.Ideal = true
	} else {
		s.Sharing = levelName(u.level)
	}
	return s
}

// gridUnits returns every mix at every level, then the Ideal of every
// workload in the mixes.
func gridUnits(mixes [][2]string, levels []sim.Sharing, noTrans bool) []unit {
	var ws []string
	for _, m := range mixes {
		ws = append(ws, m[0], m[1])
	}
	return append(mixUnits(mixes, levels, noTrans), idealUnits(noTrans, ws...)...)
}

// mixUnits returns every mix at every level.
func mixUnits(mixes [][2]string, levels []sim.Sharing, noTrans bool) []unit {
	var out []unit
	for _, m := range mixes {
		for _, lv := range levels {
			out = append(out, unit{mix: []string{m[0], m[1]}, level: lv, noTrans: noTrans})
		}
	}
	return out
}

// idealUnits returns the Ideal of each distinct workload.
func idealUnits(noTrans bool, ws ...string) []unit {
	var out []unit
	seen := map[string]bool{}
	for _, w := range ws {
		if !seen[w] {
			seen[w] = true
			out = append(out, unit{mix: []string{w}, level: sim.Ideal, noTrans: noTrans})
		}
	}
	return out
}

// seeded swaps the cores of every mix with probability 1/2 and shuffles
// the order.
func seeded(units []unit, rng *rand.Rand) []unit {
	out := make([]unit, len(units))
	for i, u := range units {
		if len(u.mix) == 2 && rng.Intn(2) == 1 {
			u.mix = []string{u.mix[1], u.mix[0]}
		}
		out[i] = u
	}
	return shuffled(out, rng)
}

// shuffled returns units in a seeded order.
func shuffled(units []unit, rng *rand.Rand) []unit {
	out := append([]unit(nil), units...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// bothPlacements returns units plus every mix with its cores swapped.
func bothPlacements(units []unit) []unit {
	out := append([]unit(nil), units...)
	for _, u := range units {
		if len(u.mix) == 2 && u.mix[0] != u.mix[1] {
			u.mix = []string{u.mix[1], u.mix[0]}
			out = append(out, u)
		}
	}
	return out
}
