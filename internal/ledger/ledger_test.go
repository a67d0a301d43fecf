package ledger

import (
	"context"
	"crypto/sha256"
	"errors"
	"strings"
	"testing"
	"time"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/resource"
	"decloud/internal/sealed"
)

const testDifficulty = 8 // cheap enough for unit tests

func testBid(t *testing.T, seed string) (*sealed.Bid, []byte) {
	t.Helper()
	id, err := sealed.NewIdentityFrom(sha256Reader(seed))
	if err != nil {
		t.Fatal(err)
	}
	key, err := sealed.NewTempKeyFrom(sha256Reader(seed + "-key"))
	if err != nil {
		t.Fatal(err)
	}
	r := &bidding.Request{
		ID: bidding.OrderID("r-" + seed), Client: id.ParticipantID(),
		Resources: resource.Vector{resource.CPU: 2},
		Start:     0, End: 100, Duration: 50, Bid: 3,
	}
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bid, err := sealed.SealBid(id, data, key, sha256Reader(seed+"-nonce"))
	if err != nil {
		t.Fatal(err)
	}
	return bid, key
}

// sha256Reader yields a deterministic byte stream.
type chainReader struct{ state [32]byte }

func sha256Reader(seed string) *chainReader {
	c := &chainReader{}
	c.state = sha256.Sum256([]byte(seed))
	return c
}

func (c *chainReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c.state = sha256.Sum256(c.state[:])
		n += copy(p[n:], c.state[:])
	}
	return n, nil
}

func minedBlock(t *testing.T, prev [32]byte, height int64, bids []*sealed.Bid, body *Body) *Block {
	t.Helper()
	b := &Block{
		Preamble: Preamble{
			Height:     height,
			PrevHash:   prev,
			Timestamp:  time.Now().Unix(),
			Difficulty: testDifficulty,
			BidsHash:   HashBids(bids),
		},
		Bids: bids,
		Body: body,
	}
	if !Mine(context.Background(), &b.Preamble, 0) {
		t.Fatal("mining failed")
	}
	return b
}

func TestPoWMineAndValidate(t *testing.T) {
	p := Preamble{Difficulty: testDifficulty}
	if p.ValidPoW() && p.Nonce == 0 {
		t.Skip("improbable: zero nonce already valid")
	}
	if !Mine(context.Background(), &p, 0) {
		t.Fatal("mining failed")
	}
	if !p.ValidPoW() {
		t.Fatal("mined preamble invalid")
	}
	p.Nonce++
	if p.ValidPoW() {
		t.Fatal("nonce perturbation should (almost surely) break PoW")
	}
}

func TestMineRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Preamble{Difficulty: 255} // unreachable
	if Mine(ctx, &p, 0) {
		t.Fatal("cancelled mining succeeded")
	}
}

func TestMineMaxIter(t *testing.T) {
	p := Preamble{Difficulty: 255}
	if Mine(context.Background(), &p, 100) {
		t.Fatal("impossible difficulty satisfied")
	}
}

func TestHashBidsOrderSensitive(t *testing.T) {
	b1, _ := testBid(t, "one")
	b2, _ := testBid(t, "two")
	if HashBids([]*sealed.Bid{b1, b2}) == HashBids([]*sealed.Bid{b2, b1}) {
		t.Fatal("bid order must be committed by the hash")
	}
}

func TestBlockValidate(t *testing.T) {
	bid, key := testBid(t, "v")
	reveal := sealed.NewKeyReveal(bid, key)
	body := NewBody([]*sealed.KeyReveal{reveal}, []byte(`[]`))
	b := minedBlock(t, [32]byte{}, 0, []*sealed.Bid{bid}, body)
	if err := b.Validate(); err != nil {
		t.Fatalf("valid block rejected: %v", err)
	}

	// Tampered allocation.
	b.Body.Allocation = []byte(`[{"forged":true}]`)
	if err := b.Validate(); !errors.Is(err, ErrBadAllocation) {
		t.Fatalf("tampered allocation: %v", err)
	}
	b.Body = nil
	if err := b.Validate(); !errors.Is(err, ErrNoBody) {
		t.Fatalf("missing body: %v", err)
	}
}

func TestChainAppendAndLinkage(t *testing.T) {
	c := NewChain()
	if c.Head() != nil || c.Len() != 0 {
		t.Fatal("fresh chain not empty")
	}
	bid, key := testBid(t, "a")
	body := NewBody([]*sealed.KeyReveal{sealed.NewKeyReveal(bid, key)}, []byte(`[]`))
	b0 := minedBlock(t, [32]byte{}, 0, []*sealed.Bid{bid}, body)
	if err := c.Append(b0, nil); err != nil {
		t.Fatalf("append genesis: %v", err)
	}
	if c.Len() != 1 || c.Head() != b0 || c.BlockAt(0) != b0 {
		t.Fatal("chain state wrong after append")
	}

	// Second block must link.
	bid2, key2 := testBid(t, "b")
	body2 := NewBody([]*sealed.KeyReveal{sealed.NewKeyReveal(bid2, key2)}, []byte(`[]`))
	wrong := minedBlock(t, [32]byte{0xde, 0xad}, 1, []*sealed.Bid{bid2}, body2)
	if err := c.Append(wrong, nil); !errors.Is(err, ErrBadLinkage) {
		t.Fatalf("bad linkage accepted: %v", err)
	}
	right := minedBlock(t, c.HeadHash(), 1, []*sealed.Bid{bid2}, body2)
	if err := c.Append(right, nil); err != nil {
		t.Fatalf("append second: %v", err)
	}
	if c.BlockAt(5) != nil || c.BlockAt(-1) != nil {
		t.Fatal("out-of-range BlockAt should be nil")
	}
}

func TestChainRejectsBadPoW(t *testing.T) {
	c := NewChain()
	bid, key := testBid(t, "pow")
	body := NewBody([]*sealed.KeyReveal{sealed.NewKeyReveal(bid, key)}, []byte(`[]`))
	b := &Block{
		Preamble: Preamble{Difficulty: 255, BidsHash: HashBids([]*sealed.Bid{bid})},
		Bids:     []*sealed.Bid{bid},
		Body:     body,
	}
	if err := c.Append(b, nil); !errors.Is(err, ErrBadPoW) {
		t.Fatalf("bad PoW accepted: %v", err)
	}
}

func TestChainVerifyCallback(t *testing.T) {
	c := NewChain()
	bid, key := testBid(t, "cb")
	body := NewBody([]*sealed.KeyReveal{sealed.NewKeyReveal(bid, key)}, []byte(`[]`))
	b := minedBlock(t, [32]byte{}, 0, []*sealed.Bid{bid}, body)
	boom := errors.New("allocation disagreement")
	err := c.Append(b, func(*Block) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("verify callback ignored: %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("rejected block was appended")
	}
}

func TestEvidenceFixedByPoW(t *testing.T) {
	bid, key := testBid(t, "ev")
	body := NewBody([]*sealed.KeyReveal{sealed.NewKeyReveal(bid, key)}, []byte(`[]`))
	b := minedBlock(t, [32]byte{}, 0, []*sealed.Bid{bid}, body)
	ev1 := b.Evidence()
	// Evidence is a pure function of the preamble: same block → same bytes.
	ev2 := b.Evidence()
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatal("evidence not stable")
		}
	}
	if len(ev1) != 32 {
		t.Fatalf("evidence length = %d", len(ev1))
	}
}

func TestAllocationEncodeDecode(t *testing.T) {
	r := &bidding.Request{
		ID: "r1", Client: "alice",
		Resources: resource.Vector{resource.CPU: 2},
		Start:     0, End: 100, Duration: 100, Bid: 10, TrueValue: 10,
	}
	setter := &bidding.Request{
		ID: "r2", Client: "zed",
		Resources: resource.Vector{resource.CPU: 2},
		Start:     0, End: 100, Duration: 100, Bid: 2, TrueValue: 2,
	}
	o := &bidding.Offer{
		ID: "o1", Provider: "p1",
		Resources: resource.Vector{resource.CPU: 8},
		Start:     0, End: 100, Bid: 1, TrueCost: 1,
	}
	out := auction.Run([]*bidding.Request{r, setter}, []*bidding.Offer{o}, auction.DefaultConfig())
	if len(out.Matches) == 0 {
		t.Fatal("expected a trade")
	}
	data, err := EncodeAllocation(out)
	if err != nil {
		t.Fatal(err)
	}
	records, err := DecodeAllocation(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(out.Matches) {
		t.Fatalf("records = %d, matches = %d", len(records), len(out.Matches))
	}
	if records[0].RequestID != "r1" || records[0].OfferID != "o1" {
		t.Fatalf("record content: %+v", records[0])
	}
	if records[0].Payment != out.Matches[0].Payment {
		t.Fatal("payment mismatch")
	}
	if _, err := DecodeAllocation([]byte("not json")); err == nil {
		t.Fatal("garbage decoded")
	}
}

// TestCheckNoDoubleSettle: a request may settle on one chain of a
// federation, once; a forwarder's per-hop renames share one root.
func TestCheckNoDoubleSettle(t *testing.T) {
	chainOf := func(seed string, allocs ...string) *Chain {
		c := NewChain()
		bid, key := testBid(t, seed)
		for h, alloc := range allocs {
			body := NewBody([]*sealed.KeyReveal{sealed.NewKeyReveal(bid, key)}, []byte(alloc))
			if err := c.Append(minedBlock(t, c.HeadHash(), int64(h), []*sealed.Bid{bid}, body), nil); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	root := func(id string) string { return strings.TrimSuffix(id, "~x1") }

	a := chainOf("a", `[{"request_id":"r1"}]`, `[{"request_id":"r2"},{"request_id":"r3~x1"}]`)
	b := chainOf("b", `[]`, `[{"request_id":"r4"}]`)
	if settled, renamed, err := CheckNoDoubleSettle(root, a, b); err != nil || settled != 4 || renamed != 1 {
		t.Fatalf("clean chains: settled %d renamed %d err %v", settled, renamed, err)
	}
	if _, _, err := CheckNoDoubleSettle(nil, a, chainOf("c", `[{"request_id":"r2"}]`)); err == nil {
		t.Fatal("a request settled on two chains must fail the audit")
	}
	if _, _, err := CheckNoDoubleSettle(nil, chainOf("d", `[{"request_id":"r1"}]`, `[{"request_id":"r1"}]`)); err == nil {
		t.Fatal("a request settled twice on one chain must fail the audit")
	}
	// Two hops of one request are distinct IDs, one root.
	alias := chainOf("e", `[{"request_id":"r3"}]`)
	if _, _, err := CheckNoDoubleSettle(nil, a, alias); err != nil {
		t.Fatalf("without a root function the IDs differ: %v", err)
	}
	if _, _, err := CheckNoDoubleSettle(root, a, alias); err == nil {
		t.Fatal("two hops of one request settled: the audit must see one root")
	}
	if _, _, err := CheckNoDoubleSettle(nil, chainOf("f", `not json`)); err == nil {
		t.Fatal("an undecodable allocation must fail the audit")
	}
}
