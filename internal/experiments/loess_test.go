package experiments

import (
	"math"
	"math/rand"
	"testing"
)

func TestLoessRecoversLine(t *testing.T) {
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 2*float64(i) + 1
	}
	l, err := newLoess(xs, ys, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 10, 25.5, 49} {
		if got := l.Predict(x); !almostEqual(got, 2*x+1, 1e-6) {
			t.Fatalf("Predict(%v) = %v, want %v", x, got, 2*x+1)
		}
	}
}

func TestLoessSmoothsNoise(t *testing.T) {
	// A noisy parabola: the smoother should land near the true curve.
	r := rand.New(rand.NewSource(1))
	n := 200
	xs := make([]float64, n)
	ys := make([]float64, n)
	truth := func(x float64) float64 { return 0.05*x*x - x + 3 }
	for i := range xs {
		x := float64(i) / float64(n) * 20
		xs[i] = x
		ys[i] = truth(x) + r.NormFloat64()*0.3
	}
	l, err := newLoess(xs, ys, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{2, 8, 14, 18} {
		got := l.Predict(x)
		if math.Abs(got-truth(x)) > 0.5 {
			t.Fatalf("Predict(%v) = %v, truth %v: too far", x, got, truth(x))
		}
	}
}

func TestLoessErrors(t *testing.T) {
	if _, err := newLoess([]float64{1}, []float64{1, 2}, 0.5); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := newLoess(nil, nil, 0.5); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := newLoess([]float64{1}, []float64{1}, 0); err == nil {
		t.Fatal("zero span accepted")
	}
	if _, err := newLoess([]float64{1}, []float64{1}, 1.5); err == nil {
		t.Fatal("span > 1 accepted")
	}
}

func TestLoessDegenerateX(t *testing.T) {
	// All x identical: prediction falls back to the mean.
	l, err := newLoess([]float64{5, 5, 5}, []float64{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Predict(5); !almostEqual(got, 2, 1e-9) {
		t.Fatalf("degenerate Predict = %v, want 2", got)
	}
}

func TestLoessCurve(t *testing.T) {
	l, err := newLoess([]float64{0, 1, 2, 3}, []float64{0, 1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := l.Curve([]float64{0.5, 1.5})
	if len(out) != 2 {
		t.Fatalf("Curve length = %d", len(out))
	}
}

// TestLoessSinglePoint: a one-observation series is degenerate but legal —
// the neighbor window clamps to the single point and every prediction is
// its y value.
func TestLoessSinglePoint(t *testing.T) {
	l, err := newLoess([]float64{5}, []float64{7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-100, 5, 100} {
		if got := l.Predict(x); !almostEqual(got, 7, 1e-9) {
			t.Fatalf("Predict(%v) = %v, want 7", x, got)
		}
	}
}

// TestLoessTinySpanClampsWindow: a span selecting fewer than two neighbors
// clamps up to two, which still fits a line exactly on linear data.
func TestLoessTinySpanClampsWindow(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 2
	}
	l, err := newLoess(xs, ys, 0.05) // ceil(0.05·10) = 1 → clamped to 2
	if err != nil {
		t.Fatal(err)
	}
	// Two-point windows fit the line, but the floored far-neighbor weight
	// makes the system ill-conditioned: expect ~1e-6, not 1e-12, accuracy.
	for _, x := range []float64{0.5, 4.25, 8.5} {
		if got := l.Predict(x); !almostEqual(got, 3*x-2, 1e-4) {
			t.Fatalf("Predict(%v) = %v, want %v", x, got, 3*x-2)
		}
	}
}

// TestLoessEdgeWindows: queries at and beyond the data range force the
// neighbor walk to grow one-sided windows; on linear data the edge fits
// extrapolate the line exactly.
func TestLoessEdgeWindows(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 2x + 1
	l, err := newLoess(xs, ys, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-2, 0, 4, 6} {
		if got := l.Predict(x); !almostEqual(got, 2*x+1, 1e-9) {
			t.Fatalf("Predict(%v) = %v, want %v", x, got, 2*x+1)
		}
	}
}
