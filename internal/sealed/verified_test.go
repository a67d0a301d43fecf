package sealed

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func testBid(t *testing.T, id *Identity, label string) *Bid {
	t.Helper()
	key, err := NewTempKeyFrom(newDetRand("key-" + label))
	if err != nil {
		t.Fatal(err)
	}
	bid, err := SealBid(id, []byte("order "+label), key, newDetRand("nonce-"+label))
	if err != nil {
		t.Fatal(err)
	}
	return bid
}

func copyBid(b *Bid) *Bid {
	return &Bid{
		Sender:    append([]byte(nil), b.Sender...),
		Envelope:  append(Envelope(nil), b.Envelope...),
		Signature: append([]byte(nil), b.Signature...),
	}
}

func TestIndexPositions(t *testing.T) {
	id := testIdentity(t, "indexer")
	a, b, c, absent := testBid(t, id, "a"), testBid(t, id, "b"), testBid(t, id, "c"), testBid(t, id, "absent")
	bids := []*Bid{a, b, a, c, a, b}
	ix := NewIndex(bids)
	if !reflect.DeepEqual(ix.Digests, Digests(bids)) || len(ix.Digests) != len(bids) {
		t.Fatal("index digests differ from the bids' digests")
	}
	for i, bid := range bids {
		if ix.Digests[i] != bid.Digest() {
			t.Fatalf("digest %d is not bid %d's", i, i)
		}
	}
	for _, tc := range []struct {
		bid  *Bid
		want []int
	}{{a, []int{0, 2, 4}}, {b, []int{1, 5}}, {c, []int{3}}, {absent, nil}} {
		if got := ix.Positions(nil, tc.bid.Digest()); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("positions %v, want %v", got, tc.want)
		}
	}
	if got := ix.Positions([]int{9}, c.Digest()); !reflect.DeepEqual(got, []int{9, 3}) {
		t.Fatalf("Positions does not append: %v", got)
	}
	// Without repeats no chain is allocated and lookups still answer.
	plain := NewIndex([]*Bid{c, b})
	if plain.next != nil {
		t.Fatal("repeat chain allocated for distinct bids")
	}
	if got := plain.Positions(nil, b.Digest()); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("positions %v, want [1]", got)
	}
	if got := NewIndex(nil).Positions(nil, a.Digest()); got != nil {
		t.Fatalf("empty index found %v", got)
	}
}

// TestBidKeyCoversEveryCommittedField: the key changes with each of the
// three fields a preamble commits to, and a bid that cannot be an
// ed25519-signed bid has none.
func TestBidKeyCoversEveryCommittedField(t *testing.T) {
	alice, mallory := testIdentity(t, "alice"), testIdentity(t, "mallory")
	bid := testBid(t, alice, "x")
	base, ok := bid.Key()
	if !ok || base.Digest != bid.Digest() {
		t.Fatal("a sealed bid has no key, or its key names another envelope")
	}
	if again, _ := copyBid(bid).Key(); again != base {
		t.Fatal("equal bids have different keys")
	}
	mutations := map[string]func(*Bid){
		"envelope":  func(b *Bid) { b.Envelope[len(b.Envelope)-1] ^= 1 },
		"signature": func(b *Bid) { b.Signature[63] ^= 1 },
		"sender":    func(b *Bid) { b.Sender = append([]byte(nil), mallory.Public()...) },
	}
	for field, mutate := range mutations {
		m := copyBid(bid)
		mutate(m)
		if k, ok := m.Key(); !ok || k == base {
			t.Fatalf("changing the %s does not change the key", field)
		}
	}
	for name, m := range map[string]*Bid{
		"short sender":    {Sender: bid.Sender[:31], Envelope: bid.Envelope, Signature: bid.Signature},
		"long signature":  {Sender: bid.Sender, Envelope: bid.Envelope, Signature: append(append([]byte(nil), bid.Signature...), 0)},
		"empty signature": {Sender: bid.Sender, Envelope: bid.Envelope},
	} {
		if _, ok := m.Key(); ok {
			t.Fatalf("%s: a bid that cannot verify has a key", name)
		}
		if m.VerifySignature() {
			t.Fatalf("%s: verifies", name)
		}
	}
}

func TestVerifiedSet(t *testing.T) {
	id := testIdentity(t, "owner")
	a, b := testBid(t, id, "a"), testBid(t, id, "b")

	var none *Verified
	if none.Has(a) {
		t.Fatal("a nil set vouches for a bid")
	}
	var v Verified
	if v.Has(a) || v.Len() != 0 {
		t.Fatal("the zero set is not empty")
	}
	v.Forget(a) // forgetting from an empty set is a no-op
	v.Add(a)
	v.Add(a)
	if !v.Has(a) || !v.Has(copyBid(a)) || v.Has(b) || v.Len() != 1 {
		t.Fatalf("after adding a: has(a)=%v has(copy)=%v has(b)=%v len=%d", v.Has(a), v.Has(copyBid(a)), v.Has(b), v.Len())
	}

	// Membership is by value: the same pointer, mutated, is out — and a
	// forged copy never was in.
	forged := copyBid(a)
	forged.Signature[0] ^= 1
	if v.Has(forged) {
		t.Fatal("the set vouches for a forged signature on an admitted envelope")
	}
	a.Signature[0] ^= 1
	if v.Has(a) {
		t.Fatal("the set vouches for a bid mutated after it was added")
	}
	// Forgetting is by pointer: the mutated bid takes its old key with it.
	v.Forget(a)
	a.Signature[0] ^= 1
	if v.Has(a) || v.Len() != 0 {
		t.Fatalf("forgetting a mutated bid left its key behind (len %d)", v.Len())
	}

	// A bid the set saw only as another pointer is forgotten by value;
	// the pointer that was added then lets go of nothing else.
	v.Add(a)
	v.Add(b)
	v.Forget(copyBid(a))
	if v.Has(a) || !v.Has(b) {
		t.Fatal("forgetting a decoded copy must drop that key and no other")
	}
	v.Forget(a, b)
	if v.Len() != 0 {
		t.Fatalf("%d bids left after forgetting all", v.Len())
	}

	// Re-adding a pointer under a new key replaces the old key.
	v.Add(b)
	old := copyBid(b)
	b.Envelope = append(Envelope(nil), testBid(t, id, "c").Envelope...)
	b.Signature = id.Sign(b.Envelope)
	v.Add(b)
	if v.Has(old) || !v.Has(b) || v.Len() != 1 {
		t.Fatal("re-adding a changed bid kept its old key")
	}
	// Bids without a key are never added.
	v.Add(&Bid{Sender: []byte{1}, Envelope: b.Envelope, Signature: b.Signature})
	if v.Len() != 1 {
		t.Fatal("a keyless bid was added")
	}
}

// TestVerifiedSetConcurrent exercises the set the way a node does — door
// goroutines adding, executor workers asking, round ends forgetting —
// for the race detector.
func TestVerifiedSetConcurrent(t *testing.T) {
	id := testIdentity(t, "busy")
	bids := make([]*Bid, 64)
	for i := range bids {
		bids[i] = testBid(t, id, fmt.Sprint(i))
	}
	var v Verified
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(bids); i += 4 {
				v.Add(bids[i])
				for _, b := range bids {
					v.Has(b)
				}
				if i%2 == 0 {
					v.Forget(bids[i])
				}
			}
		}(w)
	}
	wg.Wait()
	if got := v.Len(); got != len(bids)/2 {
		t.Fatalf("%d bids held, want %d", got, len(bids)/2)
	}
	v.Forget(bids...)
	if v.Len() != 0 {
		t.Fatal("set not empty after forgetting every bid")
	}
}
