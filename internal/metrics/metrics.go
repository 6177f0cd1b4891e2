// Package metrics implements the evaluation metrics of the paper:
// relative speedup and slowdown against the Ideal baseline, the
// fairness metric of Van Craeynest et al. (Equation 1), geometric means,
// cumulative distribution functions, and box-plot summaries.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Speedup returns ideal/measured: 1.0 means the workload ran as fast as
// with all resources to itself; below 1.0 is a slowdown from sharing.
func Speedup(idealCycles, measuredCycles int64) float64 {
	if measuredCycles <= 0 {
		return 0
	}
	return float64(idealCycles) / float64(measuredCycles)
}

// Slowdown is the inverse of speedup.
func Slowdown(idealCycles, measuredCycles int64) float64 {
	if idealCycles <= 0 {
		return 0
	}
	return float64(measuredCycles) / float64(idealCycles)
}

// Geomean returns the geometric mean of xs. All values must be
// positive; zero or negative inputs yield an error.
func Geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("metrics: geomean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("metrics: geomean requires positive values, got %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// MustGeomean is Geomean, panicking on error; for inputs known positive.
func MustGeomean(xs []float64) float64 {
	g, err := Geomean(xs)
	if err != nil {
		panic(err)
	}
	return g
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - mu) * (x - mu)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Fairness computes Equation 1 of the paper over the slowdowns of the
// workloads in one mix:
//
//	Fairness_i = 1 - sigma_i / mu_i
//
// where mu and sigma are the mean and standard deviation of the
// slowdowns. A value of 1 means perfectly balanced slowdowns; smaller
// values mean some co-runners suffer disproportionately.
func Fairness(slowdowns []float64) float64 {
	mu := Mean(slowdowns)
	if mu == 0 {
		return 0
	}
	return 1 - StdDev(slowdowns)/mu
}

// FairnessFromSpeedups converts speedups to slowdowns and applies
// Equation 1.
func FairnessFromSpeedups(speedups []float64) float64 {
	sl := make([]float64, len(speedups))
	for i, s := range speedups {
		if s <= 0 {
			return 0
		}
		sl[i] = 1 / s
	}
	return Fairness(sl)
}

// CDFAt returns the fraction of samples <= v.
func CDFAt(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x <= v {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) by linear
// interpolation between closest ranks.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// BoxStats is the five-number summary used by the paper's Fig. 8
// sensitivity box plot.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
}

// Box computes the five-number summary of xs.
func Box(xs []float64) BoxStats {
	return BoxStats{
		Min:    Percentile(xs, 0),
		Q1:     Percentile(xs, 25),
		Median: Percentile(xs, 50),
		Q3:     Percentile(xs, 75),
		Max:    Percentile(xs, 100),
	}
}

// Range returns Max - Min: the paper's "range of performance" measure
// of contention sensitivity.
func (b BoxStats) Range() float64 { return b.Max - b.Min }

func (b BoxStats) String() string {
	return fmt.Sprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f", b.Min, b.Q1, b.Median, b.Q3, b.Max)
}
