package experiments

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// stdDev returns the sample standard deviation of xs (0 for fewer than
// two observations).
func stdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// ci95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean of xs.
func ci95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * stdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Percentile returns the p-th percentile (p ∈ [0,100]) of xs using linear
// interpolation between closest ranks. It copies xs before sorting.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary bundles the descriptive statistics the experiment harness
// reports per sweep point.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI95   float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs), StdDev: stdDev(xs), CI95: ci95(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	return s
}

// String renders the summary compactly, e.g. "n=30 mean=1.23 ±0.04 [0.9,1.6]".
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g [%.4g,%.4g]", s.N, s.Mean, s.CI95, s.Min, s.Max)
}
