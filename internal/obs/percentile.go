package obs

import "math"

// Client-side histogram digests: quantile estimation for a load
// generator's frontier report without shipping raw samples. Everything
// operates on HistogramSnapshot — the immutable, cumulative-bucket view —
// and never on live histograms, keeping the hot Observe path untouched.

// Quantile estimates the q-th quantile (q in [0, 1]) from the
// snapshot's cumulative buckets, interpolating linearly inside the
// bucket the rank falls into — the same estimator Prometheus's
// histogram_quantile uses. The lowest bucket interpolates from zero;
// ranks landing in the +Inf bucket return the highest finite bound (the
// best point estimate a bounded histogram can give). An empty snapshot
// returns NaN.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := float64(q * float64(s.Count))
	// First bucket whose cumulative count reaches the rank.
	i := 0
	for i < len(s.Buckets)-1 && float64(s.Buckets[i]) < rank {
		i++
	}
	if i == len(s.Bounds) {
		// +Inf bucket: no finite upper edge to interpolate toward.
		if len(s.Bounds) == 0 {
			return math.NaN()
		}
		return s.Bounds[len(s.Bounds)-1]
	}
	var lo float64
	var below int64
	if i > 0 {
		lo = s.Bounds[i-1]
		below = s.Buckets[i-1]
	}
	in := s.Buckets[i] - below
	if in <= 0 {
		return s.Bounds[i]
	}
	return lo + (s.Bounds[i]-lo)*(rank-float64(below))/float64(in)
}

// LatencySummary is the percentile digest a load report carries.
type LatencySummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"` // upper edge of the highest occupied bucket
}

// Summarize digests a snapshot into the standard load-report percentiles.
// NaNs (empty snapshot) collapse to zeros so reports marshal cleanly.
func (s HistogramSnapshot) Summarize() LatencySummary {
	sum := LatencySummary{Count: s.Count}
	if s.Count == 0 {
		return sum
	}
	sum.Mean = s.Sum / float64(s.Count)
	sum.P50 = zeroNaN(s.Quantile(0.50))
	sum.P95 = zeroNaN(s.Quantile(0.95))
	sum.P99 = zeroNaN(s.Quantile(0.99))
	for i := len(s.Buckets) - 1; i >= 0; i-- {
		var below int64
		if i > 0 {
			below = s.Buckets[i-1]
		}
		if s.Buckets[i] > below {
			if i < len(s.Bounds) {
				sum.Max = s.Bounds[i]
			} else if len(s.Bounds) > 0 {
				sum.Max = s.Bounds[len(s.Bounds)-1]
			}
			break
		}
	}
	return sum
}

func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
