package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHistogramBasics(t *testing.T) {
	h := newHistogram(0, 10, 5)
	for _, x := range []float64{0, 1.9, 2, 5, 9.99} {
		h.add(x)
	}
	want := []float64{2, 1, 1, 0, 1}
	for i, c := range h.counts {
		if c != want[i] {
			t.Fatalf("Counts = %v, want %v", h.counts, want)
		}
	}
	if h.total() != 5 {
		t.Fatalf("Total = %v", h.total())
	}
}

func TestHistogramClamping(t *testing.T) {
	h := newHistogram(0, 1, 4)
	h.add(-5)
	h.add(99)
	if h.counts[0] != 1 || h.counts[3] != 1 {
		t.Fatalf("out-of-range values should clamp: %v", h.counts)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { newHistogram(0, 1, 0) },
		func() { newHistogram(1, 1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestProbabilities(t *testing.T) {
	h := newHistogram(0, 4, 4)
	h.add(0.5)
	h.add(1.5)
	h.add(1.7)
	p := h.probabilities()
	if !almostEqual(p[0], 1.0/3, 1e-12) || !almostEqual(p[1], 2.0/3, 1e-12) {
		t.Fatalf("Probabilities = %v", p)
	}
	var sum float64
	for _, x := range p {
		sum += x
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Fatalf("probabilities sum to %v", sum)
	}
	// Empty histogram: uniform.
	u := newHistogram(0, 1, 4).probabilities()
	for _, x := range u {
		if !almostEqual(x, 0.25, 1e-12) {
			t.Fatalf("uniform fallback = %v", u)
		}
	}
}

func TestKLDivergence(t *testing.T) {
	p := []float64{0.5, 0.5}
	if d := klDivergence(p, p); !almostEqual(d, 0, 1e-6) {
		t.Fatalf("KL(p‖p) = %v, want 0", d)
	}
	q := []float64{0.9, 0.1}
	d := klDivergence(p, q)
	if d <= 0 {
		t.Fatalf("KL(p‖q) = %v, want > 0", d)
	}
	// Asymmetry in general.
	d2 := klDivergence(q, p)
	if almostEqual(d, d2, 1e-9) {
		t.Fatal("KL divergence should be asymmetric here")
	}
	// Empty q bin stays finite thanks to smoothing.
	d3 := klDivergence([]float64{1, 0}, []float64{0, 1})
	if math.IsInf(d3, 0) || math.IsNaN(d3) {
		t.Fatalf("smoothed KL should be finite, got %v", d3)
	}
}

func TestKLDivergencePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	klDivergence([]float64{1}, []float64{0.5, 0.5})
}

func TestHistogramKLD(t *testing.T) {
	same := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if d := histogramKLD(same, same, 8); !almostEqual(d, 0, 1e-6) {
		t.Fatalf("identical samples KLD = %v", d)
	}
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = float64(i % 4)     // mass at 0..3
		b[i] = float64(i%4) + 4.0 // mass at 4..7
	}
	d := histogramKLD(a, b, 8)
	if d < 1 {
		t.Fatalf("disjoint samples should have large KLD, got %v", d)
	}
	if histogramKLD(nil, nil, 4) != 0 {
		t.Fatal("empty samples should give KLD 0")
	}
}

// Property: KL divergence is non-negative (Gibbs' inequality survives smoothing).
func TestKLNonNegativeProperty(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		p := []float64{float64(a) + 1, float64(b) + 1}
		q := []float64{float64(c) + 1, float64(d) + 1}
		pt := p[0] + p[1]
		qt := q[0] + q[1]
		p[0], p[1] = p[0]/pt, p[1]/pt
		q[0], q[1] = q[0]/qt, q[1]/qt
		return klDivergence(p, q) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKLDivergenceClampsFloatResidue: for nearly identical distributions
// the floating-point sum can dip a hair below zero; the clamp must return
// exactly 0 rather than a negative divergence.
func TestKLDivergenceClampsFloatResidue(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.5 + 1e-16, 0.5 - 1e-16}
	d := klDivergence(p, q)
	if d != 0 {
		t.Fatalf("KL of near-identical distributions = %v, want exactly 0", d)
	}
	if math.Signbit(d) {
		t.Fatal("clamped divergence is negative zero")
	}
}
