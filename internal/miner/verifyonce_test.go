package miner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/ledger"
	"decloud/internal/obs"
	"decloud/internal/sealed"
)

// sealedMarket seals the standard tradable market — three clients, one
// provider demanding a reputation every fresh client has — without
// submitting it. bids[i] belongs to parts[i]; the offer is last.
func sealedMarket(t *testing.T, seed string) (parts []*Participant, bids []*sealed.Bid) {
	t.Helper()
	for i, value := range []float64{10, 8, 2} {
		p := testParticipant(t, fmt.Sprintf("%s-client-%d", seed, i))
		bid, err := p.SubmitRequest(request(fmt.Sprintf("r-%s-%d", seed, i), 2, value))
		if err != nil {
			t.Fatal(err)
		}
		parts, bids = append(parts, p), append(bids, bid)
	}
	prov := testParticipant(t, seed+"-prov")
	o := offer("o-"+seed, 8, 1)
	o.MinReputation = 0.4
	bid, err := prov.SubmitOffer(o)
	if err != nil {
		t.Fatal(err)
	}
	return append(parts, prov), append(bids, bid)
}

func submitAll(t *testing.T, net *Network, bids []*sealed.Bid) {
	t.Helper()
	for _, b := range bids {
		if err := net.SubmitBid(b); err != nil {
			t.Fatal(err)
		}
	}
}

// revealsFor asks one participant about a preamble given as its bids.
func revealsFor(p *Participant, committed []*sealed.Bid) []*sealed.KeyReveal {
	return p.RevealsIn(sealed.NewIndex(committed))
}

func revealAll(parts []*Participant, bids []*sealed.Bid) []*sealed.KeyReveal {
	var krs []*sealed.KeyReveal
	for _, p := range parts {
		krs = append(krs, revealsFor(p, bids)...)
	}
	return krs
}

func cloneBid(b *sealed.Bid) *sealed.Bid {
	return &sealed.Bid{
		Sender:    append([]byte(nil), b.Sender...),
		Envelope:  append(sealed.Envelope(nil), b.Envelope...),
		Signature: append([]byte(nil), b.Signature...),
	}
}

// referenceDecrypt is the sequential DecryptOrders loop as it was before
// the worker pool and the admitted set: every bid's signature checked,
// one bid after the other. The determinism tests compare against it.
func referenceDecrypt(bids []*sealed.Bid, reveals []*sealed.KeyReveal) DecryptResult {
	byDigest := make(map[[32]byte]*sealed.KeyReveal, len(reveals))
	for _, kr := range reveals {
		byDigest[kr.BidDigest] = kr
	}
	var res DecryptResult
	for _, b := range bids {
		if !b.VerifySignature() {
			res.Rejected++
			continue
		}
		kr, ok := byDigest[b.Digest()]
		if !ok {
			res.Unrevealed++
			continue
		}
		if err := kr.Verify(b); err != nil {
			res.Rejected++
			continue
		}
		plain, err := b.Envelope.Open(kr.Key)
		if err != nil {
			res.Rejected++
			continue
		}
		req, off, err := bidding.DecodeOrder(plain)
		if err != nil {
			res.Rejected++
			continue
		}
		switch {
		case req != nil:
			if req.Client != b.SenderID() {
				res.Rejected++
				continue
			}
			res.Requests = append(res.Requests, req)
		case off != nil:
			if off.Provider != b.SenderID() {
				res.Rejected++
				continue
			}
			res.Offers = append(res.Offers, off)
		}
	}
	return res
}

// sameOrders compares everything consensus reads from a decrypt: the
// orders, their order, and the two drop counts.
func sameOrders(got, want DecryptResult) bool {
	return reflect.DeepEqual(got.Requests, want.Requests) && reflect.DeepEqual(got.Offers, want.Offers) &&
		got.Unrevealed == want.Unrevealed && got.Rejected == want.Rejected
}

// TestVerifyOnceBoundary pins what the admitted set may and may not
// vouch for. Skipping is sound only for a bid equal in envelope, sender
// AND signature to one the node checked; everything else met inside a
// block is checked there, and the result always equals what a fresh
// miner, with no set, computes.
func TestVerifyOnceBoundary(t *testing.T) {
	mallory := testParticipant(t, "mallory")
	cases := []struct {
		name string
		// mutate returns the block's bids given the admitted ones (the
		// offer is bids[3]); it may change an admitted bid in place.
		mutate       func(bids []*sealed.Bid) []*sealed.Bid
		admit        int // how many of the sealed bids pass the door first
		wantSkipped  int
		wantRejected int
	}{
		{"all admitted", func(b []*sealed.Bid) []*sealed.Bid { return b }, 4, 4, 0},
		{"never seen, valid", func(b []*sealed.Bid) []*sealed.Bid { return b }, 3, 3, 0},
		{"never seen, forged", func(b []*sealed.Bid) []*sealed.Bid {
			b[3].Signature[0] ^= 1
			return b
		}, 3, 3, 1},
		{"admitted envelope, forged signature", func(b []*sealed.Bid) []*sealed.Bid {
			forged := cloneBid(b[3])
			forged.Signature[5] ^= 0x40
			return []*sealed.Bid{b[0], b[1], b[2], forged}
		}, 4, 3, 1},
		{"admitted envelope, re-signed by another key", func(b []*sealed.Bid) []*sealed.Bid {
			// A valid signature, but not the owner's: the check passes, the
			// owner's reveal opens the envelope, and the order inside names
			// the owner, not this signer — the owner rule rejects the bid.
			resigned := cloneBid(b[3])
			resigned.Sender = append([]byte(nil), mallory.identity.Public()...)
			resigned.Signature = mallory.identity.Sign(resigned.Envelope)
			return []*sealed.Bid{b[0], b[1], b[2], resigned}
		}, 4, 3, 1},
		{"signature flipped in place after admission", func(b []*sealed.Bid) []*sealed.Bid {
			b[3].Signature[0] ^= 1
			return b
		}, 4, 3, 1},
		{"sender truncated in place after admission", func(b []*sealed.Bid) []*sealed.Bid {
			b[3].Sender = b[3].Sender[:31]
			return b
		}, 4, 3, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parts, bids := sealedMarket(t, "boundary")
			reveals := revealAll(parts, bids)
			var admitted sealed.Verified
			for _, b := range bids[:tc.admit] {
				if !b.VerifySignature() {
					t.Fatal("sealed bid does not verify")
				}
				admitted.Add(b)
			}
			block := tc.mutate(bids)
			want := referenceDecrypt(block, reveals)
			for _, workers := range []int{1, 4} {
				got := decryptOrders(block, reveals, &admitted, workers)
				if !sameOrders(got, want) {
					t.Fatalf("workers %d: %+v, a fresh miner computes %+v", workers, got, want)
				}
				if got.SigSkipped != tc.wantSkipped || got.Rejected != tc.wantRejected {
					t.Fatalf("workers %d: skipped %d rejected %d, want %d and %d",
						workers, got.SigSkipped, got.Rejected, tc.wantSkipped, tc.wantRejected)
				}
			}
			if fresh := DecryptOrders(block, reveals); fresh.SigSkipped != 0 || !sameOrders(fresh, want) {
				t.Fatalf("a miner without a set skipped %d checks: %+v", fresh.SigSkipped, fresh)
			}
		})
	}
}

// TestNetworkChecksBidMutatedAfterAdmission drives the same boundary
// through a whole round: a bid whose signature is flipped in place after
// SubmitBid admitted it is re-checked by the producer and by both
// verifiers, dropped identically by all three, and a fresh miner agrees
// with the committed block.
func TestNetworkChecksBidMutatedAfterAdmission(t *testing.T) {
	net := NewNetwork(3, testDifficulty, auction.DefaultConfig())
	reg := obs.NewRegistry()
	net.Obs = obs.NewMinerMetrics(reg)
	parts, bids := sealedMarket(t, "mutated")
	submitAll(t, net, bids)
	if got := net.pool.Verified().Len(); got != len(bids) || got != net.MempoolSize() {
		t.Fatalf("admitted %d bids, pool holds %d", got, net.MempoolSize())
	}
	bids[0].Signature[0] ^= 1

	res, err := net.RunRound(context.Background(), parts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RejectedBids != 1 || res.Unrevealed != 0 {
		t.Fatalf("rejected %d unrevealed %d, want the one mutated bid rejected", res.RejectedBids, res.Unrevealed)
	}
	if len(res.Outcome.Matches) == 0 {
		t.Fatal("the untouched bids did not trade")
	}
	outsider := &Miner{Name: "outsider", Difficulty: testDifficulty, AuctionCfg: auction.DefaultConfig()}
	if err := outsider.VerifyBlock(res.Block); err != nil {
		t.Fatalf("a fresh miner rejects the block: %v", err)
	}
	// Door: one check per bid. Block: three executions, each skipping the
	// three untouched bids and checking the mutated one.
	n := int64(len(bids))
	if got := reg.CounterValue("decloud_miner_bid_sig_checked_total"); got != n+3 {
		t.Fatalf("bid signatures checked = %d, want %d", got, n+3)
	}
	if got := reg.CounterValue("decloud_miner_bid_sig_skipped_total"); got != 3*(n-1) {
		t.Fatalf("bid signature checks skipped = %d, want %d", got, 3*(n-1))
	}
	if got := net.pool.Verified().Len(); got != 0 {
		t.Fatalf("%d bids still admitted after their block committed", got)
	}
}

// TestAdmittedSetDrainsWithEveryRound: whatever way a round ends, its
// bids leave the admitted set, so the set never outgrows mempool +
// in-flight rounds.
func TestAdmittedSetDrainsWithEveryRound(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, net *Network) {
		t.Helper()
		if got := net.pool.Verified().Len(); got != 0 || net.MempoolSize() != 0 {
			t.Fatalf("%d bids admitted and %d pooled after the round", got, net.MempoolSize())
		}
	}
	t.Run("committed rounds", func(t *testing.T) {
		net := NewNetwork(3, testDifficulty, auction.DefaultConfig())
		for r := 0; r < 3; r++ {
			parts, bids := sealedMarket(t, fmt.Sprintf("committed-%d", r))
			submitAll(t, net, bids)
			if _, err := net.RunRound(ctx, parts); err != nil {
				t.Fatal(err)
			}
			check(t, net)
		}
	})
	t.Run("byzantine re-election", func(t *testing.T) {
		net := NewNetwork(3, testDifficulty, auction.DefaultConfig())
		tampered := false
		net.TamperBody = tamperOnce(&tampered)
		parts, bids := sealedMarket(t, "byzantine")
		submitAll(t, net, bids)
		res, err := net.RunRound(ctx, parts)
		if err != nil || len(res.Offenders) != 1 {
			t.Fatalf("want one re-election, got %+v, %v", res, err)
		}
		check(t, net)
	})
	t.Run("every miner crashed", func(t *testing.T) {
		net := NewNetwork(2, testDifficulty, auction.DefaultConfig())
		net.Faults = crashAll(t, []string{"miner-00", "miner-01"})
		parts, bids := sealedMarket(t, "crashed")
		submitAll(t, net, bids)
		if _, err := net.RunRound(ctx, parts); !errors.Is(err, ErrAllCrashed) {
			t.Fatalf("err = %v, want ErrAllCrashed", err)
		}
		check(t, net)
	})
	t.Run("reveals never arrive", func(t *testing.T) {
		net := NewNetwork(3, testDifficulty, auction.DefaultConfig())
		_, bids := sealedMarket(t, "silent")
		submitAll(t, net, bids)
		res, err := net.RunRound(ctx, nil)
		if err != nil || res.Unrevealed != len(bids) {
			t.Fatalf("want every bid unrevealed, got %+v, %v", res, err)
		}
		check(t, net)
	})
	t.Run("pipelined rounds", func(t *testing.T) {
		net := NewNetwork(3, testDifficulty, auction.DefaultConfig())
		tampered := false
		net.TamperBody = tamperOnce(&tampered)
		out, err := net.RunPipelined(ctx, 4, func(r int) []*Participant {
			if r == 2 {
				return nil // an empty round in the middle
			}
			parts, bids := sealedMarket(t, fmt.Sprintf("pipelined-%d", r))
			submitAll(t, net, bids)
			return parts
		})
		if err != nil || len(out) != 4 {
			t.Fatalf("pipeline: %d rounds, %v", len(out), err)
		}
		check(t, net)
	})
}

// TestBlockExecutedOncePerNode: a block enters each miner through one
// execution — the winner's or a verifier's own, absorbed by its book in
// incremental mode, never replayed — and no execution re-checks a
// signature the door checked. The network's miners share one metrics
// bundle, so per block the counters move by miners × bids skipped and 0
// checked.
func TestBlockExecutedOncePerNode(t *testing.T) {
	const miners = 3
	for _, consensus := range []Consensus{ProofOfWork, ProofOfStake} {
		for _, cfg := range []auction.Config{auction.DefaultConfig(), incrementalConfig()} {
			t.Run(fmt.Sprintf("%s/incremental=%v", consensus, cfg.Incremental), func(t *testing.T) {
				reg := obs.NewRegistry()
				net := NewNetwork(miners, testDifficulty, cfg)
				net.Consensus = consensus
				net.Obs = obs.NewMinerMetrics(reg)
				for r := 0; r < 3; r++ {
					parts, bids := sealedMarket(t, fmt.Sprintf("once-%d", r))
					submitAll(t, net, bids)
					checked, skipped := reg.CounterValue(sigChecked), reg.CounterValue(sigSkipped)
					if _, err := net.RunRound(context.Background(), parts); err != nil {
						t.Fatal(err)
					}
					if c, s := reg.CounterValue(sigChecked)-checked, reg.CounterValue(sigSkipped)-skipped; c != 0 || s != int64(miners*len(bids)) {
						t.Fatalf("block %d: %d signatures checked and %d skipped in executions, want 0 and %d (one execution per miner)",
							r, c, s, miners*len(bids))
					}
					for _, m := range net.miners {
						if m.Book != nil && m.Book.Blocks() != net.Chain().Len() {
							t.Fatalf("%s absorbed %d of %d blocks", m.Name, m.Book.Blocks(), net.Chain().Len())
						}
					}
				}
			})
		}
	}
}

// decryptZoo builds a block holding every way a bid can fail next to
// bids that open, interleaved so a merge that lost input order would
// show. It returns the bids in block order with their reveals.
func decryptZoo(t *testing.T, n int) ([]*sealed.Bid, []*sealed.KeyReveal) {
	t.Helper()
	var bids []*sealed.Bid
	var reveals []*sealed.KeyReveal
	for i := 0; i < n; i++ {
		p := testParticipant(t, fmt.Sprintf("zoo-%d", i))
		var bid *sealed.Bid
		var err error
		if i%3 == 0 {
			bid, err = p.SubmitOffer(offer(fmt.Sprintf("o-%d", i), 8, 1))
		} else {
			bid, err = p.SubmitRequest(request(fmt.Sprintf("r-%d", i), 2, float64(1+i%9)))
		}
		if err != nil {
			t.Fatal(err)
		}
		kr := revealsFor(p, []*sealed.Bid{bid})[0]
		key := kr.Key
		resign := func(env sealed.Envelope) *sealed.Bid {
			return &sealed.Bid{Sender: p.identity.Public(), Envelope: env, Signature: p.identity.Sign(env)}
		}
		switch i % 10 {
		case 1: // unrevealed
			kr = nil
		case 2: // forged reveal: the right digest under a key the envelope does not commit to
			kr = &sealed.KeyReveal{BidDigest: kr.BidDigest, Key: append([]byte{key[0] ^ 1}, key[1:]...)}
		case 3: // undecryptable: the equivocator's envelope, committed to one key, sealed under another
			wrong, _ := sealed.NewTempKeyFrom(newDetReader(fmt.Sprintf("wrong-%d", i)))
			body, err := sealed.Seal([]byte("sealed under another key"), wrong, newDetReader("nonce"))
			if err != nil {
				t.Fatal(err)
			}
			bid = resign(append(append(sealed.Envelope(nil), bid.Envelope[:32]...), body[32:]...))
			kr = sealed.NewKeyReveal(bid, key)
			if kr.Verify(bid) != nil {
				t.Fatal("the crafted envelope does not commit to the revealed key")
			}
		case 4: // malformed: the envelope opens to bytes that are no order
			bid, err = sealed.SealBid(p.identity, []byte{0xff, 1, 2, 3}, key, newDetReader("nonce"))
			if err != nil {
				t.Fatal(err)
			}
			kr = sealed.NewKeyReveal(bid, key)
		case 5: // owner mismatch: a well-formed order naming someone else
			r := request(fmt.Sprintf("r-stolen-%d", i), 2, 5)
			r.Client = testParticipant(t, "victim").ID()
			data, _ := r.MarshalBinary()
			bid, err = sealed.SealBid(p.identity, data, key, newDetReader("nonce"))
			if err != nil {
				t.Fatal(err)
			}
			kr = sealed.NewKeyReveal(bid, key)
		case 6: // bad bid signature
			bid.Signature[3] ^= 1
		case 7: // the envelope layout before the key commitment: nonce ‖ ciphertext
			bid = resign(bid.Envelope[32:])
			kr = sealed.NewKeyReveal(bid, key)
		case 8: // a reveal addressed to another digest is no reveal of this bid: unrevealed
			kr = &sealed.KeyReveal{BidDigest: kr.BidDigest, Key: key}
			kr.BidDigest[0] ^= 1
		}
		bids = append(bids, bid)
		if kr != nil {
			reveals = append(reveals, kr)
		}
	}
	return bids, reveals
}

// TestParallelDecryptEqualsSequential: at every worker count, with and
// without an admitted set, decrypt yields the sequential reference's
// orders in the sequential reference's order.
func TestParallelDecryptEqualsSequential(t *testing.T) {
	bids, reveals := decryptZoo(t, 67)
	want := referenceDecrypt(bids, reveals)
	if len(want.Requests) == 0 || len(want.Offers) == 0 || want.Unrevealed < 2 || want.Rejected < 6 {
		t.Fatalf("the zoo lost a species: %d requests, %d offers, %d unrevealed, %d rejected",
			len(want.Requests), len(want.Offers), want.Unrevealed, want.Rejected)
	}
	var admitted sealed.Verified
	valid := 0
	for _, b := range bids {
		if b.VerifySignature() {
			admitted.Add(b)
			valid++
		}
	}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		if got := decryptOrders(bids, reveals, nil, workers); got.SigSkipped != 0 || !sameOrders(got, want) {
			t.Fatalf("workers %d, no set: diverges from the sequential loop", workers)
		}
		if got := decryptOrders(bids, reveals, &admitted, workers); got.SigSkipped != valid || !sameOrders(got, want) {
			t.Fatalf("workers %d, admitted set: skipped %d of %d, or diverges from the sequential loop", workers, got.SigSkipped, valid)
		}
	}
	if got := DecryptOrders(bids, reveals); !sameOrders(got, want) {
		t.Fatal("exported DecryptOrders diverges from the sequential loop")
	}
}

// referenceRevealsFor is the reveal lookup as it was: walk the committed bids,
// digest each, look it up. It does not mark bids revealed, so it can run
// beside the real thing.
func referenceRevealsFor(p *Participant, committed []*sealed.Bid) []*sealed.KeyReveal {
	p.mu.Lock()
	defer p.mu.Unlock()
	var reveals []*sealed.KeyReveal
	for _, b := range committed {
		if key, ok := p.pending[b.Digest()]; ok {
			reveals = append(reveals, sealed.NewKeyReveal(b, key))
		}
	}
	return reveals
}

// TestRevealsForEquivalence: the indexed implementation returns the
// reveals the committed-bid walk returned, in the same (preamble) order,
// whichever side it walks.
func TestRevealsForEquivalence(t *testing.T) {
	seal := func(p *Participant, id string) *sealed.Bid {
		bid, err := p.SubmitRequest(request(id, 2, 5))
		if err != nil {
			t.Fatal(err)
		}
		return bid
	}
	busy, idle, other := testParticipant(t, "busy"), testParticipant(t, "idle"), testParticipant(t, "other")
	var mine []*sealed.Bid
	for i := 0; i < 9; i++ {
		mine = append(mine, seal(busy, fmt.Sprintf("r-busy-%d", i)))
	}
	theirs := []*sealed.Bid{seal(other, "r-other-0"), seal(other, "r-other-1"), seal(other, "r-other-2")}
	one := seal(idle, "r-idle")

	preambles := map[string][]*sealed.Bid{
		// busy retains 9 bids, the preamble commits 5: walks the preamble.
		"more pending than committed": {theirs[0], mine[7], mine[2], theirs[1], one},
		// idle retains 1 bid, the preamble commits 14: walks its own.
		"fewer pending than committed": append(append([]*sealed.Bid{theirs[2]}, mine...), one, theirs[0], mine[4], one),
		"nothing of ours":              {theirs[0], theirs[1]},
		"empty":                        nil,
	}
	for name, committed := range preambles {
		for _, p := range []*Participant{busy, idle, other} {
			want := referenceRevealsFor(p, committed)
			got := revealsFor(p, committed)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %d reveals, the committed-bid walk gives %d (or another order)", name, len(got), len(want))
			}
			if again := revealsFor(p, committed); !reflect.DeepEqual(again, want) {
				t.Fatalf("%s: re-asking is not idempotent", name)
			}
			if shared := p.RevealsIn(sealed.NewIndex(committed)); !reflect.DeepEqual(shared, want) {
				t.Fatalf("%s: a shared index gives other reveals", name)
			}
		}
	}
	// Asked together, over one index and concurrently, they answer in
	// participant order.
	for name, committed := range preambles {
		all := []*Participant{busy, idle, other, busy}
		var want []*sealed.KeyReveal
		for _, p := range all {
			want = append(want, referenceRevealsFor(p, committed)...)
		}
		if got := RevealAll(all, sealed.NewIndex(committed)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: RevealAll gives %d reveals, one participant after the other gives %d (or another order)", name, len(got), len(want))
		}
	}

	// Forget releases exactly the named keys, for both walks.
	committed := preambles["more pending than committed"]
	busy.Forget([][32]byte{mine[7].Digest()})
	idle.Forget([][32]byte{one.Digest()})
	for _, p := range []*Participant{busy, idle} {
		want := referenceRevealsFor(p, committed)
		if got := revealsFor(p, committed); !reflect.DeepEqual(got, want) {
			t.Fatalf("after Forget: %d reveals, want %d", len(got), len(want))
		}
	}
	if got := revealsFor(busy, committed); len(got) != 1 || got[0].BidDigest != mine[2].Digest() {
		t.Fatalf("after forgetting one of two committed bids busy reveals %d", len(got))
	}
	if got := revealsFor(idle, committed); got != nil {
		t.Fatalf("idle still reveals %d forgotten bids", len(got))
	}
}

// lowReputation scores every client below any provider's threshold.
type lowReputation struct{}

func (lowReputation) Score(bidding.ParticipantID) float64 { return 0 }

// TestConcurrentVerifiersReportFirstObjection: the verifiers run
// concurrently, and the verdict is still the one the sequential loop
// gave — the first objection in verifier order — whichever of them
// finishes first.
func TestConcurrentVerifiersReportFirstObjection(t *testing.T) {
	build := func(t *testing.T) (*Network, *ledger.Block) {
		net := NewNetwork(4, testDifficulty, auction.DefaultConfig())
		parts, bids := sealedMarket(t, "verdict")
		submitAll(t, net, bids)
		block := net.miners[0].AssembleBlockAt(net.chain.HeadHash(), 0, bids, 1)
		if err := net.miners[0].Mine(context.Background(), block, 0); err != nil {
			t.Fatal(err)
		}
		out, err := net.miners[0].ComputeBody(block, revealAll(parts, block.Bids))
		if err != nil || len(out.Matches) == 0 {
			t.Fatalf("no trades to disagree about: %v", err)
		}
		return net, block
	}
	verifiers := []int{0, 1, 2, 3}
	sequential := func(net *Network, b *ledger.Block) error {
		for _, i := range verifiers[1:] {
			if err := net.miners[i].VerifyBlock(b); err != nil {
				return fmt.Errorf("%w (producer %s): %v", ErrNoQuorum, net.miners[0].Name, err)
			}
		}
		return nil
	}
	dissent := func(net *Network, idx ...int) {
		for _, i := range idx {
			// This verifier sees every client below the offer's reputation
			// threshold, so it recomputes an empty allocation.
			net.miners[i].AuctionCfg.Reputation = lowReputation{}
		}
	}
	for _, tc := range []struct {
		name      string
		objectors []int
		blame     string
	}{
		{"nobody objects", nil, ""},
		{"only the second verifier objects", []int{2}, "miner-02"},
		{"the last two object", []int{2, 3}, "miner-02"},
		{"everybody objects", []int{1, 2, 3}, "miner-01"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, block := build(t)
			dissent(net, tc.objectors...)
			want := sequential(net, block)
			for i := 0; i < 5; i++ {
				got := net.verifyByPolicy(block, 0, verifiers, make([]*execution, len(net.miners)))
				if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
					t.Fatalf("concurrent verdict %v, sequential verdict %v", got, want)
				}
			}
			if tc.blame == "" {
				if want != nil {
					t.Fatalf("honest block rejected: %v", want)
				}
				return
			}
			if !errors.Is(want, ErrNoQuorum) || !strings.Contains(want.Error(), tc.blame) {
				t.Fatalf("verdict %v does not name %s", want, tc.blame)
			}
		})
	}
}
