package stats

import (
	"bytes"
	"crypto/sha256"
	"math"
	"slices"
	"testing"
)

// TestKeyedOrderIsPermutation: the output must be a permutation of the
// input indices, and empty input yields an empty permutation.
func TestKeyedOrderIsPermutation(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e"}
	perm := KeyedOrder([]byte("ev"), "lottery", ids)
	if len(perm) != len(ids) {
		t.Fatalf("permutation length %d, want %d", len(perm), len(ids))
	}
	seen := make(map[int]bool)
	for _, i := range perm {
		if i < 0 || i >= len(ids) || seen[i] {
			t.Fatalf("not a permutation: %v", perm)
		}
		seen[i] = true
	}
	if got := KeyedOrder([]byte("ev"), "lottery", nil); len(got) != 0 {
		t.Fatalf("empty input gave %v", got)
	}
}

// TestKeyedOrderPositionIndependent pins the strategyproofness property:
// the draw of each identity depends only on the evidence, label, and the
// identity itself — reordering the input slice (what a participant could
// cause by changing an unrelated bid) must not change which identity
// comes out where.
func TestKeyedOrderPositionIndependent(t *testing.T) {
	forward := []string{"r1", "r2", "r3", "r4", "r5", "r6"}
	backward := []string{"r6", "r5", "r4", "r3", "r2", "r1"}
	ev := []byte("block-evidence")
	permF := KeyedOrder(ev, "excl", forward)
	permB := KeyedOrder(ev, "excl", backward)
	for i := range permF {
		if forward[permF[i]] != backward[permB[i]] {
			t.Fatalf("draw order depends on input positions: %v vs %v",
				orderedIDs(forward, permF), orderedIDs(backward, permB))
		}
	}
}

// TestKeyedOrderSensitivity: changing the evidence or the label re-rolls
// the permutation (6! = 720 orderings; both derivations are deterministic,
// so equality would mean the inputs are being ignored).
func TestKeyedOrderSensitivity(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e", "f"}
	base := KeyedOrder([]byte("ev-1"), "lottery", ids)
	if equalPerm(base, KeyedOrder([]byte("ev-2"), "lottery", ids)) {
		t.Fatal("different evidence produced the same permutation")
	}
	if equalPerm(base, KeyedOrder([]byte("ev-1"), "other", ids)) {
		t.Fatal("different label produced the same permutation")
	}
	if !equalPerm(base, KeyedOrder([]byte("ev-1"), "lottery", ids)) {
		t.Fatal("same inputs must reproduce the permutation")
	}
}

func orderedIDs(ids []string, perm []int) []string {
	out := make([]string, len(perm))
	for i, p := range perm {
		out[i] = ids[p]
	}
	return out
}

func equalPerm(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLoessSinglePoint: a one-observation series is degenerate but legal —
// the neighbor window clamps to the single point and every prediction is
// its y value.
func TestLoessSinglePoint(t *testing.T) {
	l, err := NewLoess([]float64{5}, []float64{7}, 1)
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
	l, err := NewLoess(xs, ys, 0.05) // ceil(0.05·10) = 1 → clamped to 2
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
	l, err := NewLoess(xs, ys, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-2, 0, 4, 6} {
		if got := l.Predict(x); !almostEqual(got, 2*x+1, 1e-9) {
			t.Fatalf("Predict(%v) = %v, want %v", x, got, 2*x+1)
		}
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

// TestSummarizeUnsortedInput: Min/Max tracking must work when the extrema
// are not in first position.
func TestSummarizeUnsortedInput(t *testing.T) {
	s := Summarize([]float64{3, -1, 2, 7, 0})
	if s.Min != -1 || s.Max != 7 || s.N != 5 {
		t.Fatalf("Summarize = %+v", s)
	}
}

// TestKLDivergenceClampsFloatResidue: for nearly identical distributions
// the floating-point sum can dip a hair below zero; the clamp must return
// exactly 0 rather than a negative divergence.
func TestKLDivergenceClampsFloatResidue(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.5 + 1e-16, 0.5 - 1e-16}
	d := KLDivergence(p, q)
	if d != 0 {
		t.Fatalf("KL of near-identical distributions = %v, want exactly 0", d)
	}
	if math.Signbit(d) {
		t.Fatal("clamped divergence is negative zero")
	}
}

// TestKeyedOrderHashesEvidenceLabelID pins the draw key itself: each id
// sorts by SHA-256(evidence ‖ 0 ‖ label ‖ 0 ‖ id), fed to a streaming
// hasher here, so reusing one buffer across ids cannot leak one id's
// bytes into the next key (ids of unequal length, a prefix of another).
func TestKeyedOrderHashesEvidenceLabelID(t *testing.T) {
	ev, label := []byte("block-evidence"), "auction:0/cluster:o1,o2/offers"
	ids := []string{"offer-long-identifier", "o", "of", "", "offer-7", "o"}
	type keyed struct {
		idx int
		key []byte
	}
	want := make([]keyed, len(ids))
	for i, id := range ids {
		h := sha256.New()
		h.Write(ev)
		h.Write([]byte{0})
		h.Write([]byte(label))
		h.Write([]byte{0})
		h.Write([]byte(id))
		want[i] = keyed{idx: i, key: h.Sum(nil)}
	}
	slices.SortStableFunc(want, func(a, b keyed) int { return bytes.Compare(a.key, b.key) })
	got := KeyedOrder(ev, label, ids)
	for i := range want {
		if got[i] != want[i].idx {
			t.Fatalf("KeyedOrder = %v, want the streaming-hash order %v", got, want)
		}
	}
}
