// Package predictor implements the workload-mapping performance model
// of §4.6: a multi-factor regression that estimates how much two
// workloads slow each other down when co-scheduled on a dual-core NPU,
// trained on randomly generated networks (DeepSniffer-style) to avoid
// overfitting the eight benchmarks. It also provides the mapping
// evaluation machinery (oracle / worst / random / predicted selection
// over all pairings of eight workloads onto four dual-core NPUs).
package predictor

import (
	"fmt"
	"math"

	"mnpusim/internal/sim"
	"mnpusim/internal/stats"
)

// Profile is the per-workload profiled information the model is allowed
// to use (§4.6.1): PE utilization, memory traffic per execution, and
// execution time (for the execution-time-ratio correction factor).
type Profile struct {
	Name string
	// Cycles is the solo (Ideal) execution latency.
	Cycles int64
	// Utilization is the solo PE utilization; lower values indicate
	// more contention on memory resources.
	Utilization float64
	// TrafficBytes is the off-chip traffic per inference; higher
	// values indicate a more memory-intensive workload.
	TrafficBytes int64
}

// TrafficPerCycle is the workload's average bandwidth demand.
func (p Profile) TrafficPerCycle() float64 {
	if p.Cycles == 0 {
		return 0
	}
	return float64(p.TrafficBytes) / float64(p.Cycles)
}

// ProfileOf extracts a Profile from a solo simulation result.
func ProfileOf(r sim.CoreResult) Profile {
	return Profile{
		Name:         r.Net,
		Cycles:       r.Cycles,
		Utilization:  r.Utilization,
		TrafficBytes: r.TrafficBytes,
	}
}

// Features builds the regression row for predicting the slowdown of
// workload a when co-running with b: an intercept, both PE
// utilizations, both bandwidth demands (memory traffic per execution
// normalized by execution time), the execution-time ratio, and the
// demand product (a direct contention interaction term).
func Features(a, b Profile) []float64 {
	ta, tb := a.TrafficPerCycle(), b.TrafficPerCycle()
	ratio := 1.0
	if b.Cycles > 0 {
		ratio = float64(a.Cycles) / float64(b.Cycles)
	}
	return []float64{
		1,
		a.Utilization,
		b.Utilization,
		ta,
		tb,
		ta * tb,
		math.Log1p(ratio),
	}
}

// NumFeatures is the length of a Features row.
const NumFeatures = 7

// Model predicts co-run slowdowns from solo profiles.
type Model struct {
	beta []float64
}

// NewModel wraps fitted coefficients.
func NewModel(beta []float64) (Model, error) {
	if len(beta) != NumFeatures {
		return Model{}, fmt.Errorf("predictor: got %d coefficients, want %d", len(beta), NumFeatures)
	}
	return Model{beta: append([]float64(nil), beta...)}, nil
}

// PredictSlowdown estimates the slowdown (>= 1) of a with co-runner b.
func (m Model) PredictSlowdown(a, b Profile) float64 {
	s := stats.Predict(m.beta, Features(a, b))
	if s < 1 {
		return 1
	}
	return s
}

// PredictSpeedup estimates the relative speedup (<= 1) of a with
// co-runner b.
func (m Model) PredictSpeedup(a, b Profile) float64 {
	return 1 / m.PredictSlowdown(a, b)
}

// Sample is one training observation: a pair of profiles and the
// observed slowdown of the first workload.
type Sample struct {
	A, B     Profile
	Slowdown float64
}

// Fit trains the model on observed co-run slowdowns.
func Fit(samples []Sample) (Model, error) {
	if len(samples) < NumFeatures {
		return Model{}, fmt.Errorf("predictor: %d samples cannot fit %d coefficients", len(samples), NumFeatures)
	}
	x := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		x[i] = Features(s.A, s.B)
		y[i] = s.Slowdown
	}
	beta, err := stats.LeastSquares(x, y)
	if err != nil {
		return Model{}, err
	}
	return NewModel(beta)
}

// Evaluate returns the model's R^2 on the given samples.
func (m Model) Evaluate(samples []Sample) float64 {
	y := make([]float64, len(samples))
	yhat := make([]float64, len(samples))
	for i, s := range samples {
		y[i] = s.Slowdown
		yhat[i] = m.PredictSlowdown(s.A, s.B)
	}
	return stats.R2(y, yhat)
}
