package p2p

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/ledger"
	"decloud/internal/miner"
	"decloud/internal/obs"
	"decloud/internal/resource"
	"decloud/internal/sealed"
)

func testRequest(id string, value float64) *bidding.Request {
	return &bidding.Request{
		ID:        bidding.OrderID(id),
		Resources: resource.Vector{resource.CPU: 2, resource.RAM: 8},
		Start:     0, End: 100, Duration: 100,
		Bid: value,
	}
}

func testOffer(id string) *bidding.Offer {
	return &bidding.Offer{
		ID:        bidding.OrderID(id),
		Resources: resource.Vector{resource.CPU: 8, resource.RAM: 32},
		Start:     0, End: 100,
		Bid: 0.5,
	}
}

func observedNode(t *testing.T, name string) (*MarketNode, *obs.Registry) {
	t.Helper()
	return observedNodeWith(t, name, auction.DefaultConfig())
}

func observedNodeWith(t *testing.T, name string, cfg auction.Config) (*MarketNode, *obs.Registry) {
	t.Helper()
	mn, err := NewMarketNode(name, "127.0.0.1:0", testDifficulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mn.Close() })
	reg := obs.NewRegistry()
	mn.SetObs(obs.NewMinerMetrics(reg))
	return mn, reg
}

const (
	sigChecked = "decloud_miner_bid_sig_checked_total"
	sigSkipped = "decloud_miner_bid_sig_skipped_total"
)

// TestRoundChecksEachBidSignatureOncePerNode is the count behind "verify
// once per node": a producer and a verifier commit a round of N bids
// with 2 N ed25519 verifications between them — each node's door, once
// per bid — and none inside either execution: each node pushes every bid
// through one decrypt (N skipped + 0 checked in the block on either
// side, nothing unrevealed or rejected), and a reveal is checked by
// hashing. The bid-signature counter is every ed25519 verification a
// node performs (miner.TestOneFunctionReachesEd25519 parses the tree for
// that), so 2 N on the counters is 2 N in total.
func TestRoundChecksEachBidSignatureOncePerNode(t *testing.T) {
	producer, regP := observedNode(t, "once-p")
	verifier, regV := observedNode(t, "once-v")
	if err := verifier.Connect(producer.Addr()); err != nil {
		t.Fatal(err)
	}
	entropy := make([]io.Reader, 4)
	for i := range entropy {
		entropy[i] = newDetReader(fmt.Sprintf("once-id-%d", i))
	}
	lc, err := NewLoadClient("once-lc", "127.0.0.1:0", entropy, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.Connect(producer.Addr()); err != nil {
		t.Fatal(err)
	}

	const n = 12
	for i := 0; i < n; i++ {
		if i%4 == 3 {
			_, err = lc.SubmitOffer(i, testOffer(fmt.Sprintf("o-%d", i)))
		} else {
			_, err = lc.SubmitRequest(i, testRequest(fmt.Sprintf("r-%d", i), float64(2+i)))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, mn := range []*MarketNode{producer, verifier} {
		mn := mn
		waitFor(t, "bids pooled at "+mn.Name(), func() bool { return mn.MempoolSize() == n })
		if got := mn.pool.Verified().Len(); got != n {
			t.Fatalf("%s admitted %d of %d pooled bids", mn.Name(), got, n)
		}
	}
	doorChecks := map[*MarketNode]int64{
		producer: regP.CounterValue(sigChecked),
		verifier: regV.CounterValue(sigChecked),
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sum, err := producer.ProduceBlockOpts(ctx, RoundConfig{Quorum: 1, RevealWindow: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Unrevealed != 0 || sum.OKVotes != 1 || sum.BadVotes != 0 || len(sum.Outcome.Matches) == 0 {
		t.Fatalf("round: %d unrevealed, votes %d ok %d bad, %d matches",
			sum.Unrevealed, sum.OKVotes, sum.BadVotes, len(sum.Outcome.Matches))
	}
	if dec := miner.DecryptOrders(sum.Block.Bids, sum.Block.Body.Reveals); dec.Rejected != 0 || dec.Unrevealed != 0 {
		t.Fatalf("the committed block rejects %d bids and leaves %d unrevealed", dec.Rejected, dec.Unrevealed)
	}
	if got := doorChecks[producer] + doorChecks[verifier]; got != 2*n {
		t.Fatalf("%d signature checks at the two doors for %d bids, want %d", got, n, 2*n)
	}

	// Executing the block added nothing to what the doors had checked.
	var checked int64
	for mn, reg := range map[*MarketNode]*obs.Registry{producer: regP, verifier: regV} {
		c, s := reg.CounterValue(sigChecked), reg.CounterValue(sigSkipped)
		if c != doorChecks[mn] || s != n {
			t.Fatalf("%s: %d bid signatures checked (%d at the door) and %d skipped in the block, want %d, %d and %d",
				mn.Name(), c, doorChecks[mn], s, n, n, n)
		}
		checked += c
	}
	if checked != 2*n {
		t.Fatalf("%d ed25519 verifications for a producer + verifier round of %d bids, want %d", checked, n, 2*n)
	}
	for _, mn := range []*MarketNode{producer, verifier} {
		if got := mn.pool.Verified().Len(); got != 0 {
			t.Fatalf("%s still holds %d admitted bids after their block committed", mn.Name(), got)
		}
	}
}

// TestBlockExecutedOncePerNode: over TCP too a block enters each node
// through one execution — the producer's own (miner.Produce), the
// verifier's verification (miner.Accept) — which the order book absorbs
// in incremental mode instead of replaying the block. Per node per block
// the executions push len(bids) signatures through, all skipped: the
// node's door had checked them.
func TestBlockExecutedOncePerNode(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", incremental), func(t *testing.T) {
			cfg := auction.DefaultConfig()
			cfg.Incremental = incremental
			producer, regP := observedNodeWith(t, "exec-p", cfg)
			verifier, regV := observedNodeWith(t, "exec-v", cfg)
			if err := verifier.Connect(producer.Addr()); err != nil {
				t.Fatal(err)
			}
			lc, err := NewLoadClient("exec-lc", "127.0.0.1:0", []io.Reader{newDetReader("exec-id")}, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { lc.Close() })
			if err := lc.Connect(producer.Addr()); err != nil {
				t.Fatal(err)
			}
			nodes := map[*MarketNode]*obs.Registry{producer: regP, verifier: regV}
			const n = 6
			for round := 0; round < 3; round++ {
				for i := 0; i < n; i++ {
					if i%3 == 2 {
						_, err = lc.SubmitOffer(0, testOffer(fmt.Sprintf("o-%d-%d", round, i)))
					} else {
						_, err = lc.SubmitRequest(0, testRequest(fmt.Sprintf("r-%d-%d", round, i), float64(2+i)))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				checked, skipped := map[*MarketNode]int64{}, map[*MarketNode]int64{}
				for mn, reg := range nodes {
					mn := mn
					waitFor(t, "bids pooled at "+mn.Name(), func() bool { return mn.MempoolSize() == n })
					checked[mn], skipped[mn] = reg.CounterValue(sigChecked), reg.CounterValue(sigSkipped)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				sum, err := producer.ProduceBlockOpts(ctx, RoundConfig{Quorum: 1, RevealWindow: 5 * time.Second})
				cancel()
				if err != nil || sum.Unrevealed != 0 || sum.OKVotes != 1 || sum.BadVotes != 0 {
					t.Fatalf("round %d: %+v, %v", round, sum, err)
				}
				for mn, reg := range nodes {
					c, s := reg.CounterValue(sigChecked)-checked[mn], reg.CounterValue(sigSkipped)-skipped[mn]
					if c != 0 || s != n {
						t.Fatalf("round %d, %s: executing the block checked %d signatures and skipped %d, want 0 and %d (one execution)",
							round, mn.Name(), c, s, n)
					}
					if bk := mn.Book(); bk != nil && bk.Blocks() != mn.Chain().Len() {
						t.Fatalf("%s absorbed %d of %d blocks", mn.Name(), bk.Blocks(), mn.Chain().Len())
					}
				}
			}
		})
	}
}

// TestVerifierChecksWhatItDidNotAdmit: trust never crosses the node
// boundary, and inside it covers a bid only byte for byte. A producer
// that cheats on one bid's signature — and computes the body as if the
// bid were sound — is caught by a verifier whether or not that verifier
// admitted the honest original; a bid the verifier never saw is checked
// inside the block, and accepted when it is valid.
func TestVerifierChecksWhatItDidNotAdmit(t *testing.T) {
	mallory, err := sealed.NewIdentityFrom(newDetReader("mallory"))
	if err != nil {
		t.Fatal(err)
	}
	flip := func(b *sealed.Bid) *sealed.Bid {
		f := &sealed.Bid{Sender: b.Sender, Envelope: b.Envelope, Signature: append([]byte(nil), b.Signature...)}
		f.Signature[7] ^= 1
		return f
	}
	resign := func(b *sealed.Bid) *sealed.Bid {
		return &sealed.Bid{
			Sender:    append([]byte(nil), mallory.Public()...),
			Envelope:  b.Envelope,
			Signature: mallory.Sign(b.Envelope),
		}
	}
	for _, tc := range []struct {
		name       string
		admitOffer bool
		forge      func(*sealed.Bid) *sealed.Bid // nil: the block carries the honest offer
		// inBlock is how many bid signatures the verifier must check while
		// executing the block.
		inBlock int64
	}{
		{"admitted, honest block", true, nil, 0},
		{"never seen, valid", false, nil, 1},
		{"never seen, forged signature", false, flip, 1},
		{"admitted envelope, forged signature", true, flip, 1},
		{"admitted envelope, re-signed by another key", true, resign, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, reg := observedNode(t, "boundary-v")
			var parts []*miner.Participant
			var bids []*sealed.Bid
			for i := 0; i < 4; i++ {
				p, err := miner.NewParticipant(newDetReader(fmt.Sprintf("boundary-%d", i)))
				if err != nil {
					t.Fatal(err)
				}
				var bid *sealed.Bid
				if i < 3 {
					bid, err = p.SubmitRequest(testRequest(fmt.Sprintf("r-%d", i), float64(10-3*i)))
				} else {
					bid, err = p.SubmitOffer(testOffer("o-prov"))
				}
				if err != nil {
					t.Fatal(err)
				}
				parts, bids = append(parts, p), append(bids, bid)
			}
			offer := bids[3]
			admit := bids
			if !tc.admitOffer {
				admit = bids[:3]
			}
			for _, b := range admit {
				if err := v.SubmitBid(b); err != nil {
					t.Fatal(err)
				}
			}

			// The producer is a bare miner: it carries the forged offer in
			// the block but computes the body over the honest one, under
			// the forged block's evidence — what a node that skipped the
			// forged bid's signature check would compute.
			carried := append([]*sealed.Bid(nil), bids...)
			if tc.forge != nil {
				carried[3] = tc.forge(offer)
			}
			cfg := auction.DefaultConfig()
			cheater := &miner.Miner{Name: "cheater", Difficulty: testDifficulty, AuctionCfg: cfg}
			block := cheater.AssembleBlockAt(v.Chain().HeadHash(), 0, carried, 1)
			if err := cheater.Mine(context.Background(), block, 0); err != nil {
				t.Fatal(err)
			}
			honest := append([]*sealed.Bid(nil), block.Bids...)
			for i, b := range honest {
				if b == carried[3] {
					honest[i] = offer
				}
			}
			var reveals []*sealed.KeyReveal
			for _, p := range parts {
				reveals = append(reveals, p.RevealsIn(sealed.NewIndex(honest))...)
			}
			dec := miner.DecryptOrders(honest, reveals)
			if dec.Rejected != 0 || dec.Unrevealed != 0 {
				t.Fatalf("honest bids do not open: %+v", dec)
			}
			cfg.Evidence = block.Evidence()
			out := auction.Run(dec.Requests, dec.Offers, cfg)
			if len(out.Matches) == 0 {
				t.Fatal("nothing trades; the forged offer would not matter")
			}
			alloc, err := ledger.EncodeAllocation(out)
			if err != nil {
				t.Fatal(err)
			}
			block.Body = ledger.NewBody(reveals, alloc)
			payload, err := ledger.AppendBlock(nil, block)
			if err != nil {
				t.Fatal(err)
			}

			doorChecks := reg.CounterValue(sigChecked)
			v.onBlock(Message{Type: msgBlock, Payload: payload})

			accepted := v.Chain().Len() == 1
			if want := tc.forge == nil; accepted != want {
				t.Fatalf("block accepted = %v, want %v", accepted, want)
			}
			if got := reg.CounterValue(sigChecked) - doorChecks; got != tc.inBlock {
				t.Fatalf("%d bid signatures checked inside the block, want %d", got, tc.inBlock)
			}
			if got, want := reg.CounterValue(sigSkipped), int64(len(bids))-tc.inBlock; got != want {
				t.Fatalf("%d bid signature checks skipped, want %d", got, want)
			}
			if accepted {
				if v.pool.Verified().Len() != 0 || v.MempoolSize() != 0 {
					t.Fatalf("%d admitted, %d pooled after the block committed", v.pool.Verified().Len(), v.MempoolSize())
				}
			} else if v.pool.Verified().Len() != len(admit) || v.MempoolSize() != len(admit) {
				t.Fatalf("%d admitted, %d pooled after a rejected block, want %d", v.pool.Verified().Len(), v.MempoolSize(), len(admit))
			}
		})
	}
}

// TestAdmittedSetFollowsThePool: the admitted set never outgrows pool +
// in-flight block on a producing node, however its rounds end.
func TestAdmittedSetFollowsThePool(t *testing.T) {
	mn, _ := observedNode(t, "follows")
	part, err := miner.NewParticipant(newDetReader("follows"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		bid, err := part.SubmitRequest(testRequest(fmt.Sprintf("r-%d", i), float64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := mn.SubmitBid(bid); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(when string, n int) {
		t.Helper()
		if mn.pool.Verified().Len() != n || mn.MempoolSize() != n {
			t.Fatalf("%s: %d admitted, %d pooled, want %d", when, mn.pool.Verified().Len(), mn.MempoolSize(), n)
		}
	}
	expect("after submission", 4)

	// Nobody is connected, so no reveal ever arrives: a round whose
	// context expires mid-reveal dies before anything is appended and
	// puts its drained bids back, still admitted.
	failRound := func() {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if _, err := mn.ProduceBlockOpts(ctx, RoundConfig{RevealWindow: 10 * time.Second}); err == nil {
			t.Fatal("round without reveals and an expired context succeeded")
		}
	}
	failRound()
	expect("after a re-pooled round", 4)

	// The pool's limit shrank meanwhile: the bids that cannot go back are
	// forgotten with the round.
	mn.SetMempoolLimit(2)
	failRound()
	expect("after a partly re-pooled round", 2)

	// A reveal window that lapses commits the block with every bid
	// unrevealed; committed bids leave the set.
	sum, err := mn.ProduceBlockOpts(context.Background(), RoundConfig{RevealWindow: 20 * time.Millisecond})
	if err != nil || sum.Unrevealed != 2 {
		t.Fatalf("reveal-timeout round: %+v, %v", sum, err)
	}
	expect("after a committed round", 0)
}
