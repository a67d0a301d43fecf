package miner

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/contract"
	"decloud/internal/ledger"
	"decloud/internal/resource"
	"decloud/internal/sealed"
)

const testDifficulty = 8

// detReader yields a deterministic byte stream for reproducible identities.
type detReader struct{ state [32]byte }

func newDetReader(seed string) *detReader {
	r := &detReader{}
	r.state = sha256.Sum256([]byte(seed))
	return r
}

func (r *detReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		r.state = sha256.Sum256(r.state[:])
		n += copy(p[n:], r.state[:])
	}
	return n, nil
}

func testParticipant(t *testing.T, seed string) *Participant {
	t.Helper()
	p, err := NewParticipant(newDetReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func request(id string, cpu, value float64) *bidding.Request {
	return &bidding.Request{
		ID:        bidding.OrderID(id),
		Resources: resource.Vector{resource.CPU: cpu, resource.RAM: cpu * 4},
		Start:     0, End: 100, Duration: 100,
		Bid: value, TrueValue: value,
	}
}

func offer(id string, cpu, cost float64) *bidding.Offer {
	return &bidding.Offer{
		ID:        bidding.OrderID(id),
		Resources: resource.Vector{resource.CPU: cpu, resource.RAM: cpu * 4},
		Start:     0, End: 100,
		Bid: cost, TrueCost: cost,
	}
}

// marketRound seeds a network with a standard tradable market: three
// clients (one will be the price setter), one provider.
func marketRound(t *testing.T, net *Network) []*Participant {
	t.Helper()
	// Deterministic entropy seals byte-identical bids, and the network
	// absorbs a replay of a committed bid: salt the seeds per block.
	salt := fmt.Sprintf("@%d", net.Chain().Len())
	alice := testParticipant(t, "alice"+salt)
	bob := testParticipant(t, "bob"+salt)
	zed := testParticipant(t, "zed"+salt)
	prov := testParticipant(t, "prov"+salt)

	submissions := []struct {
		p   *Participant
		req *bidding.Request
		off *bidding.Offer
	}{
		{p: alice, req: request("r-alice", 2, 10)},
		{p: bob, req: request("r-bob", 2, 8)},
		{p: zed, req: request("r-zed", 2, 2)}, // the marginal price setter
		{p: prov, off: offer("o-prov", 8, 1)},
	}
	for _, s := range submissions {
		var bid *sealed.Bid
		var err error
		if s.req != nil {
			bid, err = s.p.SubmitRequest(s.req)
		} else {
			bid, err = s.p.SubmitOffer(s.off)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SubmitBid(bid); err != nil {
			t.Fatal(err)
		}
	}
	return []*Participant{alice, bob, zed, prov}
}

func TestFullProtocolRound(t *testing.T) {
	net := NewNetwork(3, testDifficulty, auction.DefaultConfig())
	participants := marketRound(t, net)

	res, err := net.RunRound(context.Background(), participants)
	if err != nil {
		t.Fatalf("round failed: %v", err)
	}
	if res.Winner == "" {
		t.Fatal("no winning miner")
	}
	if net.Chain().Len() != 1 {
		t.Fatalf("chain length = %d", net.Chain().Len())
	}
	if len(res.Outcome.Matches) == 0 {
		t.Fatal("no trades on chain")
	}
	if res.Unrevealed != 0 || res.RejectedBids != 0 {
		t.Fatalf("unexpected drops: unrevealed=%d rejected=%d", res.Unrevealed, res.RejectedBids)
	}
	// The block is fully valid and carries the allocation.
	block := net.Chain().Head()
	if err := block.Validate(); err != nil {
		t.Fatal(err)
	}
	records, err := ledger.DecodeAllocation(block.Body.Allocation)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(res.Outcome.Matches) {
		t.Fatal("allocation records do not match outcome")
	}
	// Agreements proposed for every match.
	if len(res.Agreements) != len(res.Outcome.Matches) {
		t.Fatalf("agreements = %d, matches = %d", len(res.Agreements), len(res.Outcome.Matches))
	}
}

func TestClientsAcceptAgreements(t *testing.T) {
	net := NewNetwork(2, testDifficulty, auction.DefaultConfig())
	participants := marketRound(t, net)
	res, err := net.RunRound(context.Background(), participants)
	if err != nil {
		t.Fatal(err)
	}
	reg := net.Contracts()
	for _, id := range res.Agreements {
		a, err := reg.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Accept(id, a.Client()); err != nil {
			t.Fatalf("accept %s: %v", id, err)
		}
	}
	counts := reg.CountByStatus()
	if counts[contract.Agreed] != len(res.Agreements) {
		t.Fatalf("agreed = %d", counts[contract.Agreed])
	}
}

func TestClientDenyTriggersPenalty(t *testing.T) {
	net := NewNetwork(2, testDifficulty, auction.DefaultConfig())
	participants := marketRound(t, net)
	res, err := net.RunRound(context.Background(), participants)
	if err != nil {
		t.Fatal(err)
	}
	reg := net.Contracts()
	a, err := reg.Get(res.Agreements[0])
	if err != nil {
		t.Fatal(err)
	}
	provider, err := reg.Deny(a.ID, a.Client())
	if err != nil {
		t.Fatal(err)
	}
	if provider == "" {
		t.Fatal("deny must name the provider to notify")
	}
	if reg.Reputation().Score(a.Client()) >= 1 {
		t.Fatal("denial should cost reputation")
	}
}

func TestCheatingMinerRejected(t *testing.T) {
	net := NewNetwork(3, testDifficulty, auction.DefaultConfig())
	participants := marketRound(t, net)
	// The winning miner inflates the first payment before broadcast.
	net.TamperBody = func(_ string, b *ledger.Body) {
		records, err := ledger.DecodeAllocation(b.Allocation)
		if err != nil || len(records) == 0 {
			return
		}
		records[0].Payment *= 10
		forged, _ := encodeRecords(records)
		*b = *ledger.NewBody(b.Reveals, forged)
	}
	_, err := net.RunRound(context.Background(), participants)
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("tampered block should be rejected by verifiers, got %v", err)
	}
	if net.Chain().Len() != 0 {
		t.Fatal("tampered block reached the chain")
	}
}

func TestTamperedAllocationHashRejected(t *testing.T) {
	net := NewNetwork(2, testDifficulty, auction.DefaultConfig())
	participants := marketRound(t, net)
	// Tamper with allocation bytes but not the hash: structural check fails.
	net.TamperBody = func(_ string, b *ledger.Body) {
		b.Allocation = append(b.Allocation, ' ')
	}
	_, err := net.RunRound(context.Background(), participants)
	if err == nil {
		t.Fatal("hash-inconsistent body accepted")
	}
	if net.Chain().Len() != 0 {
		t.Fatal("invalid block on chain")
	}
}

func TestUnrevealedBidExcluded(t *testing.T) {
	net := NewNetwork(2, testDifficulty, auction.DefaultConfig())
	participants := marketRound(t, net)
	// A fifth participant submits but never reveals (not passed to RunRound).
	ghost := testParticipant(t, "ghost")
	bid, err := ghost.SubmitRequest(request("r-ghost", 2, 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SubmitBid(bid); err != nil {
		t.Fatal(err)
	}
	res, err := net.RunRound(context.Background(), participants)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unrevealed != 1 {
		t.Fatalf("unrevealed = %d, want 1", res.Unrevealed)
	}
	// The ghost's request must not appear in the allocation.
	records, _ := ledger.DecodeAllocation(net.Chain().Head().Body.Allocation)
	for _, rec := range records {
		if rec.RequestID == "r-ghost" {
			t.Fatal("unrevealed bid traded")
		}
	}
}

func TestForgedBidRejectedAtSubmission(t *testing.T) {
	net := NewNetwork(1, testDifficulty, auction.DefaultConfig())
	p := testParticipant(t, "p")
	bid, err := p.SubmitRequest(request("r", 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	bid.Envelope[0] ^= 1 // break the signature binding
	if err := net.SubmitBid(bid); !errors.Is(err, ErrBadBid) {
		t.Fatalf("forged bid accepted: %v", err)
	}
}

func TestImpersonatedOrderDropped(t *testing.T) {
	// An order claiming another participant's identity decrypts fine but
	// must be rejected because the owner field does not match the signer.
	mallory := testParticipant(t, "mallory")
	victim := testParticipant(t, "victim")

	r := request("r-fake", 2, 5)
	r.Client = victim.ID() // forged owner
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	key, _ := sealed.NewTempKeyFrom(newDetReader("k"))
	bid, err := sealed.SealBid(mallory.identity, data, key, newDetReader("n"))
	if err != nil {
		t.Fatal(err)
	}
	reveal := sealed.NewKeyReveal(bid, key)
	res := DecryptOrders([]*sealed.Bid{bid}, []*sealed.KeyReveal{reveal})
	if res.Rejected != 1 || len(res.Requests) != 0 {
		t.Fatalf("impersonated order not dropped: %+v", res)
	}
}

// TestAnyoneMayRelayTheTrueKey: a reveal is not signed, so mallory can
// reveal alice's bid — but only with the one key alice's signed envelope
// commits to, which opens the bid to alice's own order. That is a relay,
// not an attack. What mallory cannot do is make the key open anything
// else: under any other key the bid is rejected, and a copy of the
// envelope re-signed under mallory's key opens to an order that names
// alice, which the owner check drops.
func TestAnyoneMayRelayTheTrueKey(t *testing.T) {
	alice := testParticipant(t, "alice")
	mallory := testParticipant(t, "mallory")
	bid, err := alice.SubmitRequest(request("r-alice", 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	key := revealsFor(alice, []*sealed.Bid{bid})[0].Key

	relayed := &sealed.KeyReveal{BidDigest: bid.Digest(), Key: append([]byte(nil), key...)}
	res := DecryptOrders([]*sealed.Bid{bid}, []*sealed.KeyReveal{relayed})
	if res.Rejected != 0 || len(res.Requests) != 1 || res.Requests[0].Client != alice.ID() || res.Requests[0].ID != "r-alice" {
		t.Fatalf("the true key relayed by a third party must open alice's order: %+v", res)
	}

	junk, _ := sealed.NewTempKeyFrom(newDetReader("mallory's key"))
	res = DecryptOrders([]*sealed.Bid{bid}, []*sealed.KeyReveal{{BidDigest: bid.Digest(), Key: junk}})
	if res.Rejected != 1 || len(res.Requests) != 0 {
		t.Fatalf("a key the envelope does not commit to opened it: %+v", res)
	}

	squat := &sealed.Bid{
		Sender:    mallory.identity.Public(),
		Envelope:  bid.Envelope,
		Signature: mallory.identity.Sign(bid.Envelope),
	}
	res = DecryptOrders([]*sealed.Bid{squat}, []*sealed.KeyReveal{relayed})
	if res.Rejected != 1 || len(res.Requests) != 0 {
		t.Fatalf("alice's order traded under mallory's signature: %+v", res)
	}
}

// TestOldLayoutBidIsRejected: there is no version switch. A bid whose
// envelope has the layout before the key commitment (nonce ‖ ciphertext)
// is validly signed, commits to no key, and is executed as Rejected —
// by every node alike, without a panic.
func TestOldLayoutBidIsRejected(t *testing.T) {
	p := testParticipant(t, "old-layout")
	cur, err := p.SubmitRequest(request("r-old", 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	key := revealsFor(p, []*sealed.Bid{cur})[0].Key
	old := cur.Envelope[32:] // what Seal produced before it prepended the commitment
	bid := &sealed.Bid{Sender: p.identity.Public(), Envelope: old, Signature: p.identity.Sign(old)}
	if !bid.VerifySignature() {
		t.Fatal("the old-layout bid must fail on its envelope, not its signature")
	}
	if _, err := bid.Envelope.Open(key); !errors.Is(err, sealed.ErrOpenFailed) {
		t.Fatalf("old-layout envelope: %v, want ErrOpenFailed", err)
	}
	res := DecryptOrders([]*sealed.Bid{bid, cur}, []*sealed.KeyReveal{sealed.NewKeyReveal(bid, key), sealed.NewKeyReveal(cur, key)})
	if res.Rejected != 1 || res.Unrevealed != 0 || len(res.Requests) != 1 {
		t.Fatalf("old-layout bid beside a current one: %+v, want one rejected and one opened", res)
	}
}

func TestEmptyMempoolRound(t *testing.T) {
	net := NewNetwork(1, testDifficulty, auction.DefaultConfig())
	if _, err := net.RunRound(context.Background(), nil); !errors.Is(err, ErrEmptyMempool) {
		t.Fatalf("empty round: %v", err)
	}
}

func TestMultipleRoundsChainGrowth(t *testing.T) {
	net := NewNetwork(2, testDifficulty, auction.DefaultConfig())
	for round := 0; round < 3; round++ {
		participants := marketRound(t, net)
		res, err := net.RunRound(context.Background(), participants)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Block.Preamble.Height != int64(round) {
			t.Fatalf("height = %d, want %d", res.Block.Preamble.Height, round)
		}
	}
	if net.Chain().Len() != 3 {
		t.Fatalf("chain length = %d", net.Chain().Len())
	}
	// Linkage is intact.
	for i := 1; i < 3; i++ {
		prev := net.Chain().BlockAt(i - 1).Preamble.Hash()
		if net.Chain().BlockAt(i).Preamble.PrevHash != prev {
			t.Fatalf("linkage broken at %d", i)
		}
	}
}

func TestVerifierIndependentRecompute(t *testing.T) {
	// A fresh miner that saw none of the round can verify the block from
	// its contents alone.
	net := NewNetwork(2, testDifficulty, auction.DefaultConfig())
	participants := marketRound(t, net)
	if _, err := net.RunRound(context.Background(), participants); err != nil {
		t.Fatal(err)
	}
	outsider := &Miner{Name: "outsider", Difficulty: testDifficulty, AuctionCfg: auction.DefaultConfig()}
	if err := outsider.VerifyBlock(net.Chain().Head()); err != nil {
		t.Fatalf("outsider verification failed: %v", err)
	}
}

func encodeRecords(records []ledger.AllocationRecord) ([]byte, error) {
	return json.Marshal(records)
}
