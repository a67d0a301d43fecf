package stats

import (
	"bytes"
	"crypto/sha256"
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

func TestRNGDeterminism(t *testing.T) {
	a := newRand([]byte("block-evidence"))
	b := newRand([]byte("block-evidence"))
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same evidence must give identical streams")
		}
	}
	c := newRand([]byte("different"))
	same := true
	a2 := newRand([]byte("block-evidence"))
	for i := 0; i < 10; i++ {
		if a2.Int63() != c.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different evidence should give different streams")
	}
}

func TestSubRandIndependence(t *testing.T) {
	evidence := []byte("block-7")
	a := SubRand(evidence, "mini-auction-1")
	b := SubRand(evidence, "mini-auction-2")
	a2 := SubRand(evidence, "mini-auction-1")
	if a.Int63() != a2.Int63() {
		t.Fatal("same label must reproduce")
	}
	diff := false
	a3 := SubRand(evidence, "mini-auction-1")
	for i := 0; i < 10; i++ {
		if a3.Int63() != b.Int63() {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different labels should diverge")
	}
}
