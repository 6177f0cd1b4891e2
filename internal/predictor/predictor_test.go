package predictor

import (
	"math"
	"testing"

	"mnpusim/internal/stats"
)

func prof(name string, cycles int64, util, tpc float64) Profile {
	return Profile{Name: name, Cycles: cycles, Utilization: util, TrafficBytes: int64(tpc * float64(cycles))}
}

func TestTrafficPerCycle(t *testing.T) {
	p := prof("a", 1000, 0.5, 3)
	if p.TrafficPerCycle() != 3 {
		t.Errorf("tpc = %v", p.TrafficPerCycle())
	}
	if (Profile{}).TrafficPerCycle() != 0 {
		t.Error("zero-cycle profile should give 0")
	}
}

func TestFeaturesShape(t *testing.T) {
	a, b := prof("a", 100, 0.5, 1), prof("b", 200, 0.25, 2)
	f := Features(a, b)
	if len(f) != NumFeatures {
		t.Fatalf("features = %d, want %d", len(f), NumFeatures)
	}
	if f[0] != 1 {
		t.Error("intercept missing")
	}
	if f[1] != 0.5 || f[2] != 0.25 {
		t.Error("utilizations misplaced")
	}
}

func TestNewModelRejectsWrongArity(t *testing.T) {
	if _, err := NewModel([]float64{1, 2}); err == nil {
		t.Error("short coefficient vector accepted")
	}
	m, err := NewModel(make([]float64, NumFeatures))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.beta) != NumFeatures {
		t.Error("coefficients lost")
	}
}

func TestPredictSlowdownClampedAtOne(t *testing.T) {
	beta := make([]float64, NumFeatures)
	beta[0] = -5 // silly model predicting speedups from sharing
	m, _ := NewModel(beta)
	if got := m.PredictSlowdown(prof("a", 1, 0, 0), prof("b", 1, 0, 0)); got != 1 {
		t.Errorf("slowdown = %v, want clamp to 1", got)
	}
	if m.PredictSpeedup(prof("a", 1, 0, 0), prof("b", 1, 0, 0)) != 1 {
		t.Error("speedup should be 1/slowdown")
	}
}

// synthSlowdown is a deterministic ground-truth contention model used
// to test fitting: slowdown grows with combined bandwidth demand.
func synthSlowdown(a, b Profile) float64 {
	return 1 + 0.3*a.TrafficPerCycle()*b.TrafficPerCycle() + 0.1*b.TrafficPerCycle()
}

func synthSamples() []Sample {
	var out []Sample
	for i := 1; i <= 6; i++ {
		for j := 1; j <= 6; j++ {
			a := prof("a", int64(1000*i), 1/float64(i), float64(i)/2)
			b := prof("b", int64(900*j), 1/float64(j), float64(j)/2)
			out = append(out, Sample{A: a, B: b, Slowdown: synthSlowdown(a, b)})
		}
	}
	return out
}

func TestFitLearnsSyntheticContention(t *testing.T) {
	samples := synthSamples()
	m, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := m.Evaluate(samples); r2 < 0.95 {
		t.Errorf("R2 on training data = %v, want > 0.95", r2)
	}
	// Prediction ordering: heavier co-runner means more slowdown.
	light := prof("l", 1000, 0.9, 0.2)
	heavy := prof("h", 1000, 0.1, 3.0)
	victim := prof("v", 1000, 0.3, 1.5)
	if m.PredictSlowdown(victim, heavy) <= m.PredictSlowdown(victim, light) {
		t.Error("heavier co-runner should predict more slowdown")
	}
}

func TestFitRejectsTooFewSamples(t *testing.T) {
	if _, err := Fit(synthSamples()[:3]); err == nil {
		t.Error("too few samples accepted")
	}
}

func TestPairTableSymmetry(t *testing.T) {
	pt := NewPairTable(3)
	pt.Set(0, 2, 0.8, 0.6)
	sa, sb, err := pt.Speedups(0, 2)
	if err != nil || sa != 0.8 || sb != 0.6 {
		t.Errorf("forward: %v %v %v", sa, sb, err)
	}
	sa, sb, err = pt.Speedups(2, 0)
	if err != nil || sa != 0.6 || sb != 0.8 {
		t.Errorf("reversed: %v %v %v", sa, sb, err)
	}
	// Setting with reversed order normalizes too.
	pt.Set(2, 1, 0.5, 0.9)
	sa, sb, _ = pt.Speedups(1, 2)
	if sa != 0.9 || sb != 0.5 {
		t.Errorf("reversed set: %v %v", sa, sb)
	}
	if _, _, err := pt.Speedups(0, 1); err == nil {
		t.Error("unmeasured pair accepted")
	}
	if pt.Complete() {
		t.Error("incomplete table reported complete")
	}
	pt.Set(0, 0, 1, 1)
	pt.Set(1, 1, 1, 1)
	pt.Set(2, 2, 1, 1)
	pt.Set(0, 1, 1, 1)
	if !pt.Complete() {
		t.Error("complete table reported incomplete")
	}
	if pt.Types() != 3 {
		t.Errorf("types = %d", pt.Types())
	}
}

// fullTable builds a pair table from per-workload bandwidth demands
// with a saturation model: co-runners sharing a link of capacity 1 slow
// down only when combined demand exceeds it. Pairing two heavy
// workloads is then strictly worse than splitting them — the structure
// the mapping study exploits.
func fullTable(demand []float64) *PairTable {
	sat := func(a, b float64) float64 {
		if a+b <= 1 {
			return 1
		}
		return 1 / (a + b)
	}
	pt := NewPairTable(len(demand))
	for i := 0; i < len(demand); i++ {
		for j := i; j < len(demand); j++ {
			s := sat(demand[i], demand[j])
			pt.Set(i, j, s, s)
		}
	}
	return pt
}

func TestScoreMapping(t *testing.T) {
	// Demands: two heavy (0.9) and two light (0.2) workloads.
	pt := fullTable([]float64{0.9, 0.2, 0.9, 0.2})
	set := []int{0, 1, 2, 3}
	// Mixed pairings: each link carries 1.1 -> all speedups 1/1.1.
	o, err := ScoreMapping(set, [][2]int{{0, 1}, {2, 3}}, pt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(o.Perf-1/1.1) > 1e-12 || math.Abs(o.Fairness-1) > 1e-12 {
		t.Errorf("mixed pairing: %+v", o)
	}
	// Heavy+heavy saturates one link: geomean sqrt(1/1.8) over half
	// the workloads.
	o2, _ := ScoreMapping(set, [][2]int{{0, 2}, {1, 3}}, pt)
	want := math.Sqrt(1 / 1.8)
	if math.Abs(o2.Perf-want) > 1e-12 {
		t.Errorf("heavy pairing perf = %v, want %v", o2.Perf, want)
	}
	if o2.Fairness >= 1 {
		t.Errorf("heavy pairing fairness = %v, want < 1", o2.Fairness)
	}
}

func TestEvaluateSetOracleBeatsWorst(t *testing.T) {
	demand := []float64{0.1, 0.3, 0.5, 0.9, 0.1, 0.3, 0.5, 0.9}
	pt := fullTable(demand)
	profiles := make([]Profile, 8)
	for i := range profiles {
		profiles[i] = prof(string(rune('a'+i)), 1000, 1-demand[i], demand[i]*2)
	}
	m, err := Fit(synthSamples())
	if err != nil {
		t.Fatal(err)
	}
	set := []int{0, 1, 2, 3, 4, 5, 6, 7}
	o, err := EvaluateSet(set, pt, m, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if !(o.Worst.Perf < o.Random.Perf && o.Random.Perf < o.Oracle.Perf) {
		t.Errorf("ordering violated: worst=%v random=%v oracle=%v", o.Worst.Perf, o.Random.Perf, o.Oracle.Perf)
	}
	if o.Predicted.Perf < o.Worst.Perf || o.Predicted.Perf > o.Oracle.Perf {
		t.Errorf("predicted %v outside [worst, oracle]", o.Predicted.Perf)
	}
	if o.WorstFair.Fairness > o.OracleFair.Fairness {
		t.Error("fairness extremes inverted")
	}
	if len(o.Oracle.Pairing) != 4 {
		t.Errorf("oracle pairing size %d", len(o.Oracle.Pairing))
	}
}

func TestEvaluateSetRejectsOddSets(t *testing.T) {
	pt := fullTable([]float64{1, 1, 1})
	m, _ := NewModel(make([]float64, NumFeatures))
	if _, err := EvaluateSet([]int{0, 1, 2}, pt, m, nil); err == nil {
		t.Error("odd set accepted")
	}
}

func TestFeaturesUsedByRegression(t *testing.T) {
	// Sanity link between Features and stats.Predict arity.
	row := Features(prof("a", 10, 1, 1), prof("b", 10, 1, 1))
	beta := make([]float64, len(row))
	beta[0] = 2
	if stats.Predict(beta, row) != 2 {
		t.Error("predict/feature mismatch")
	}
}
