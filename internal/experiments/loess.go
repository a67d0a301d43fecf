package experiments

import (
	"fmt"
	"math"
	"sort"
)

// loess performs locally weighted linear regression (LOESS) with tricube
// weights, the smoother behind the trend curves in Figure 5 of the paper.
//
// span ∈ (0, 1] is the fraction of points used in each local fit. For
// each query point the span·n nearest x-neighbors are weighted by
// w = (1 − (d/dmax)³)³ and a weighted least-squares line is fit.
type loess struct {
	span float64
	xs   []float64
	ys   []float64
}

// newLoess fits a LOESS smoother over the (x, y) observations. It returns
// an error for mismatched or empty inputs or an out-of-range span.
func newLoess(xs, ys []float64, span float64) (*loess, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("experiments: loess needs equal-length inputs, got %d and %d", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("experiments: loess needs at least one observation")
	}
	if span <= 0 || span > 1 {
		return nil, fmt.Errorf("experiments: loess span %v out of (0, 1]", span)
	}
	// Sort by x for deterministic neighbor selection.
	type pt struct{ x, y float64 }
	pts := make([]pt, len(xs))
	for i := range xs {
		pts[i] = pt{xs[i], ys[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	l := &loess{span: span, xs: make([]float64, len(pts)), ys: make([]float64, len(pts))}
	for i, p := range pts {
		l.xs[i], l.ys[i] = p.x, p.y
	}
	return l, nil
}

// Predict evaluates the smoothed curve at x.
func (l *loess) Predict(x float64) float64 {
	n := len(l.xs)
	k := int(math.Ceil(l.span * float64(n)))
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	// Find the k nearest neighbors of x along the sorted xs via a window.
	lo := sort.SearchFloat64s(l.xs, x)
	left, right := lo-1, lo
	take := make([]int, 0, k)
	for len(take) < k {
		switch {
		case left < 0 && right >= n:
			break
		case left < 0:
			take = append(take, right)
			right++
		case right >= n:
			take = append(take, left)
			left--
		case x-l.xs[left] <= l.xs[right]-x:
			take = append(take, left)
			left--
		default:
			take = append(take, right)
			right++
		}
		if left < 0 && right >= n {
			break
		}
	}
	var dmax float64
	for _, i := range take {
		if d := math.Abs(l.xs[i] - x); d > dmax {
			dmax = d
		}
	}
	if dmax == 0 {
		dmax = 1
	}
	// Weighted linear least squares: minimize Σ w_i (y_i − a − b·x_i)².
	var sw, swx, swy, swxx, swxy float64
	for _, i := range take {
		d := math.Abs(l.xs[i]-x) / dmax
		t := 1 - d*d*d
		w := t * t * t
		if w <= 0 {
			w = 1e-9
		}
		sw += w
		swx += w * l.xs[i]
		swy += w * l.ys[i]
		swxx += w * l.xs[i] * l.xs[i]
		swxy += w * l.xs[i] * l.ys[i]
	}
	denom := sw*swxx - swx*swx
	if math.Abs(denom) < 1e-12 {
		// Degenerate x spread: fall back to the weighted mean.
		return swy / sw
	}
	b := (sw*swxy - swx*swy) / denom
	a := (swy - b*swx) / sw
	return a + b*x
}

// Curve evaluates the smoother at each of the given query points.
func (l *loess) Curve(query []float64) []float64 {
	out := make([]float64, len(query))
	for i, x := range query {
		out[i] = l.Predict(x)
	}
	return out
}
