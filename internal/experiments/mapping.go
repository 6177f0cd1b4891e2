package experiments

import (
	"fmt"

	"mnpusim/internal/metrics"
	"mnpusim/internal/predictor"
	"mnpusim/internal/sim"
	"mnpusim/internal/stats"
)

// MappingResult reproduces Figs 17-18: the CDFs of system performance
// and fairness over all M(8,8)=6435 eight-workload sets mapped onto
// four dual-core NPUs, under four mapping policies — worst, random
// (expectation), the regression predictor, and the oracle — each
// normalized to the random baseline (the system without mapping).
type MappingResult struct {
	Sets int
	// Normalized per-set values, one per policy.
	WorstPerf, PredictedPerf, OraclePerf             []float64
	WorstFairness, PredictedFairness, OracleFairness []float64
	// PredictedBeatsRandom is the fraction of sets where the predictor
	// outperforms the random expectation (the paper reports 50.04%
	// for performance and 60.90% for fairness).
	PredictedBeatsRandomPerf float64
	PredictedBeatsRandomFair float64
	// ModelR2 is the regression fit quality on its training set.
	ModelR2 float64
}

func (r MappingResult) String() string {
	med := func(xs []float64) float64 { return metrics.Percentile(xs, 50) }
	return fmt.Sprintf(`workload mapping over %d sets (4 dual-core NPUs, +DWT):
  median normalized perf: worst=%.3f predicted=%.3f oracle=%.3f
  median normalized fair: worst=%.3f predicted=%.3f oracle=%.3f
  predictor beats random: perf %.1f%% of sets, fairness %.1f%% of sets (model R2=%.2f)`,
		r.Sets,
		med(r.WorstPerf), med(r.PredictedPerf), med(r.OraclePerf),
		med(r.WorstFairness), med(r.PredictedFairness), med(r.OracleFairness),
		100*r.PredictedBeatsRandomPerf, 100*r.PredictedBeatsRandomFair, r.ModelR2)
}

// BuildPairTable fills a PairTable from the 36 measured dual-core +DWT
// mixes (Fig 4's +DWT cells).
func BuildPairTable(r *Runner) (*predictor.PairTable, error) {
	scores, err := dualDWT(r)
	if err != nil {
		return nil, err
	}
	t := predictor.NewPairTable(len(r.Names()))
	// Mixes enumerates the dual mixes in multiset order, so score k is
	// pair k.
	for k, p := range stats.Multisets(len(r.Names()), 2) {
		t.Set(p[0], p[1], scores[k].Speedups[0], scores[k].Speedups[1])
	}
	return t, nil
}

// WorkloadProfiles returns the solo profiles of the eight benchmarks,
// indexed like Names().
func WorkloadProfiles(r *Runner) ([]predictor.Profile, error) {
	names := r.Names()
	out := make([]predictor.Profile, len(names))
	err := r.ForEach(len(names), func(i int) error {
		ib, err := r.Ideal(names[i])
		if err != nil {
			return err
		}
		out[i] = predictor.ProfileOf(ib)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WorkloadMapping runs Figs 17-18: it measures the 36 pair results,
// trains the predictor on random networks, and scores every
// eight-workload set under the four policies.
func WorkloadMapping(r *Runner) (MappingResult, error) {
	table, err := BuildPairTable(r)
	if err != nil {
		return MappingResult{}, err
	}
	profiles, err := WorkloadProfiles(r)
	if err != nil {
		return MappingResult{}, err
	}

	model, samples, err := predictor.Train(predictor.TrainConfig{
		Scale:    r.opts.Scale,
		Pairs:    24,
		Seed:     r.opts.Seed,
		Sharing:  sim.ShareDWT,
		Run:      r.result,
		Parallel: r.ForEach,
	})
	if err != nil {
		return MappingResult{}, fmt.Errorf("experiments: training predictor: %w", err)
	}
	r.logf("predictor trained, R2=%.3f", model.Evaluate(samples))

	sets := stats.Multisets(len(r.Names()), 8)
	stride := 1
	if r.opts.MapSample > 0 && r.opts.MapSample < len(sets) {
		stride = len(sets) / r.opts.MapSample
	}

	out := MappingResult{ModelR2: model.Evaluate(samples)}
	beatsPerf, beatsFair := 0, 0
	for i := 0; i < len(sets); i += stride {
		o, err := predictor.EvaluateSet(sets[i], table, model, profiles)
		if err != nil {
			return MappingResult{}, err
		}
		out.Sets++
		out.WorstPerf = append(out.WorstPerf, o.Worst.Perf/o.Random.Perf)
		out.PredictedPerf = append(out.PredictedPerf, o.Predicted.Perf/o.Random.Perf)
		out.OraclePerf = append(out.OraclePerf, o.Oracle.Perf/o.Random.Perf)
		out.WorstFairness = append(out.WorstFairness, o.WorstFair.Fairness/o.Random.Fairness)
		out.PredictedFairness = append(out.PredictedFairness, o.Predicted.Fairness/o.Random.Fairness)
		out.OracleFairness = append(out.OracleFairness, o.OracleFair.Fairness/o.Random.Fairness)
		if o.Predicted.Perf > o.Random.Perf {
			beatsPerf++
		}
		if o.Predicted.Fairness > o.Random.Fairness {
			beatsFair++
		}
	}
	out.PredictedBeatsRandomPerf = float64(beatsPerf) / float64(out.Sets)
	out.PredictedBeatsRandomFair = float64(beatsFair) / float64(out.Sets)
	return out, nil
}
