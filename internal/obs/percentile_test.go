package obs

import (
	"math"
	"math/rand"
	"testing"
)

func histWith(t *testing.T, bounds []float64, obs ...float64) *Histogram {
	t.Helper()
	r := NewRegistry()
	h := r.Histogram("t_seconds", "", bounds)
	for _, v := range obs {
		h.Observe(v)
	}
	return h
}

// TestQuantileExact: table-driven checks where the interpolated value is
// known in closed form.
func TestQuantileExact(t *testing.T) {
	bounds := []float64{1, 2, 3, 4}
	cases := []struct {
		name string
		obs  []float64
		q    float64
		want float64
	}{
		{"median of evenly spread bounds", []float64{1, 2, 3, 4}, 0.5, 2},
		{"q0 collapses to bucket floor", []float64{1, 2, 3, 4}, 0, 0},
		{"q1 reaches the top occupied bound", []float64{1, 2, 3, 4}, 1, 4},
		{"interpolation inside one bucket", []float64{1.5, 1.5, 1.5, 1.5}, 0.5, 1.5},
		{"all mass below first bound", []float64{0.5, 0.5}, 0.5, 0.5},
		{"rank in +Inf bucket clamps to top bound", []float64{9, 9, 9}, 0.9, 4},
		{"clamped q above 1", []float64{1, 2}, 1.5, 2},
		{"clamped q below 0", []float64{1, 2}, -0.5, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := histWith(t, bounds, tc.obs...).Snapshot().Quantile(tc.q)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

// TestQuantileEmpty: an empty snapshot has no quantiles.
func TestQuantileEmpty(t *testing.T) {
	if v := (HistogramSnapshot{}).Quantile(0.5); !math.IsNaN(v) {
		t.Fatalf("empty snapshot Quantile = %v, want NaN", v)
	}
	if v := histWith(t, []float64{1, 2}).Snapshot().Quantile(0.5); !math.IsNaN(v) {
		t.Fatalf("zero-observation snapshot Quantile = %v, want NaN", v)
	}
}

// TestQuantileKnownDistributions: estimated quantiles of seeded uniform
// and exponential samples must land within one bucket width of the true
// quantile — the aggregation a load report relies on.
func TestQuantileKnownDistributions(t *testing.T) {
	bounds := make([]float64, 50)
	for i := range bounds {
		bounds[i] = float64(i+1) / 50 * 2 // 0.04 … 2.0
	}
	const n = 20000
	rnd := rand.New(rand.NewSource(11))

	uni := histWith(t, bounds)
	exp := histWith(t, bounds)
	for i := 0; i < n; i++ {
		uni.Observe(rnd.Float64())          // U(0,1): quantile q is q
		exp.Observe(rnd.ExpFloat64() * 0.2) // Exp(λ=5): quantile q is -ln(1-q)/5
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		if got, want := uni.Snapshot().Quantile(q), q; math.Abs(got-want) > 0.05 {
			t.Fatalf("uniform Quantile(%v) = %v, want ≈ %v", q, got, want)
		}
		if got, want := exp.Snapshot().Quantile(q), -math.Log(1-q)*0.2; math.Abs(got-want) > 0.08 {
			t.Fatalf("exponential Quantile(%v) = %v, want ≈ %v", q, got, want)
		}
	}
}

// TestSummarize: the digest reports count, mean, ordered percentiles,
// and the top occupied bucket edge; empty summaries are all zeros.
func TestSummarize(t *testing.T) {
	s := histWith(t, []float64{1, 2, 3, 4}, 1, 1, 2, 2, 3).Snapshot().Summarize()
	if s.Count != 5 || math.Abs(s.Mean-1.8) > 1e-12 {
		t.Fatalf("count/mean = %d/%v, want 5/1.8", s.Count, s.Mean)
	}
	if !(s.P50 <= s.P95 && s.P95 <= s.P99) {
		t.Fatalf("percentiles unordered: %+v", s)
	}
	if s.Max != 3 {
		t.Fatalf("Max = %v, want 3 (highest occupied bucket)", s.Max)
	}
	empty := (HistogramSnapshot{}).Summarize()
	if empty != (LatencySummary{}) {
		t.Fatalf("empty summary not zero: %+v", empty)
	}
}
