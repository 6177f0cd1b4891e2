package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpeedupAndSlowdown(t *testing.T) {
	if Speedup(100, 200) != 0.5 {
		t.Error("speedup wrong")
	}
	if Slowdown(100, 200) != 2.0 {
		t.Error("slowdown wrong")
	}
	if Speedup(100, 0) != 0 || Slowdown(0, 100) != 0 {
		t.Error("degenerate inputs should return 0")
	}
}

func TestGeomean(t *testing.T) {
	g, err := Geomean([]float64{2, 8})
	if err != nil || math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v, %v", g, err)
	}
	if _, err := Geomean(nil); err == nil {
		t.Error("empty geomean accepted")
	}
	if _, err := Geomean([]float64{1, 0}); err == nil {
		t.Error("zero value accepted")
	}
	if _, err := Geomean([]float64{-1}); err == nil {
		t.Error("negative value accepted")
	}
}

func TestMustGeomeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGeomean did not panic")
		}
	}()
	MustGeomean([]float64{0})
}

func TestMeanAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("mean = %v", Mean(xs))
	}
	if StdDev(xs) != 2 {
		t.Errorf("stddev = %v", StdDev(xs))
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty slices should give 0")
	}
}

func TestFairnessEquation1(t *testing.T) {
	// Equal slowdowns: perfectly fair.
	if f := Fairness([]float64{2, 2, 2}); f != 1 {
		t.Errorf("equal slowdowns fairness = %v, want 1", f)
	}
	// The paper's example shape: mu=1.5, sigma=0.5 -> 1 - 1/3.
	if f := Fairness([]float64{1, 2}); math.Abs(f-(1-0.5/1.5)) > 1e-12 {
		t.Errorf("fairness(1,2) = %v", f)
	}
	if Fairness([]float64{0, 0}) != 0 {
		t.Error("zero-mean fairness should be 0")
	}
}

func TestFairnessFromSpeedups(t *testing.T) {
	got := FairnessFromSpeedups([]float64{1, 0.5})
	want := Fairness([]float64{1, 2})
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("got %v, want %v", got, want)
	}
	if FairnessFromSpeedups([]float64{1, 0}) != 0 {
		t.Error("non-positive speedup should yield 0")
	}
}

func TestCDF(t *testing.T) {
	if CDFAt([]float64{3, 1, 2}, 3) != 1 {
		t.Error("CDF must end at 1")
	}
	if CDFAt([]float64{1, 2, 3, 4}, 2.5) != 0.5 {
		t.Error("CDFAt wrong")
	}
	if CDFAt(nil, 1) != 0 {
		t.Error("empty CDFAt should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {-5, 10}, {110, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{0, 10}, 50); got != 5 {
		t.Errorf("interpolated median = %v, want 5", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestBoxStats(t *testing.T) {
	b := Box([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.Q1 != 2 || b.Q3 != 4 {
		t.Errorf("box: %+v", b)
	}
	if b.Range() != 4 {
		t.Errorf("range = %v", b.Range())
	}
	if b.String() == "" {
		t.Error("empty String()")
	}
}

// Property: geomean lies between min and max.
func TestQuickGeomeanBetweenMinMax(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)/16 + 0.1
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := MustGeomean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: fairness is in (-inf, 1], equals 1 only for uniform inputs,
// and is scale-invariant.
func TestQuickFairnessProperties(t *testing.T) {
	f := func(raw []uint8, scaleRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) + 1
		}
		fv := Fairness(xs)
		if fv > 1 {
			return false
		}
		scale := float64(scaleRaw%7) + 1
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * scale
		}
		return math.Abs(Fairness(scaled)-fv) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CDFAt is monotone non-decreasing in its threshold.
func TestQuickCDFMonotone(t *testing.T) {
	xs := []float64{0.2, 0.5, 0.7, 0.9, 1.1, 1.4}
	f := func(aRaw, bRaw uint8) bool {
		a, b := float64(aRaw)/100, float64(bRaw)/100
		if a > b {
			a, b = b, a
		}
		return CDFAt(xs, a) <= CDFAt(xs, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the box plot's five numbers are ordered.
func TestQuickBoxOrdered(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		b := Box(xs)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
