package experiments

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-1, 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almostEqual(got, tt.want, 1e-12) {
				t.Fatalf("Mean = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestStdDev(t *testing.T) {
	if got := stdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 2.13808993, 1e-6) {
		t.Fatalf("stdDev = %v", got)
	}
	if stdDev([]float64{1}) != 0 {
		t.Fatal("stdDev of single value should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	tests := []struct {
		p    float64
		want float64
	}{{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {-5, 1}, {110, 5}}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); !almostEqual(got, tt.want, 1e-12) {
			t.Fatalf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}

// TestPercentileInterpolates covers the fractional-rank path: ranks that
// fall between two order statistics are linearly interpolated.
func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ p, want float64 }{
		{50, 2.5}, // rank 1.5
		{10, 1.3}, // rank 0.3
		{90, 3.7}, // rank 2.7
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || !almostEqual(s.Mean, 2, 1e-12) {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Min != 0 || empty.Max != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
}

// TestSummarizeUnsortedInput: Min/Max tracking must work when the extrema
// are not in first position.
func TestSummarizeUnsortedInput(t *testing.T) {
	s := Summarize([]float64{3, -1, 2, 7, 0})
	if s.Min != -1 || s.Max != 7 || s.N != 5 {
		t.Fatalf("Summarize = %+v", s)
	}
}
