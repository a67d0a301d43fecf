package miner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/book"
	"decloud/internal/ledger"
	"decloud/internal/sealed"
)

func incrementalConfig() auction.Config {
	cfg := auction.DefaultConfig()
	cfg.Incremental = true
	return cfg
}

// TestIncrementalFirstBlockMatchesFromScratch: over an empty book the
// incremental clear IS the from-scratch mechanism, so the first block
// body must be byte-identical between an incremental network and a
// plain one fed the same bids. Proof-of-stake keeps the block preamble
// (and with it the PoW evidence) deterministic across both networks.
func TestIncrementalFirstBlockMatchesFromScratch(t *testing.T) {
	run := func(cfg auction.Config) []byte {
		net := NewNetwork(3, 0, cfg)
		net.Consensus = ProofOfStake
		participants := marketRound(t, net)
		if _, err := net.RunRound(context.Background(), participants); err != nil {
			t.Fatalf("round failed: %v", err)
		}
		return net.Chain().Head().Body.Allocation
	}
	plain := run(auction.DefaultConfig())
	incr := run(incrementalConfig())
	if !bytes.Equal(plain, incr) {
		t.Fatal("incremental first block diverges from the from-scratch body")
	}
}

// TestIncrementalCarryAcrossBlocks: a request that finds no supply in
// block 1 stays in every miner's book and matches in block 2 against an
// offer revealed only then — the resubmission loop the simulator used
// to run is now protocol state, and all verifiers accept the block even
// though the matched request is not among its bids.
func TestIncrementalCarryAcrossBlocks(t *testing.T) {
	net := NewNetwork(3, 0, incrementalConfig())
	net.Consensus = ProofOfStake

	alice := testParticipant(t, "alice")
	bob := testParticipant(t, "bob")
	zed := testParticipant(t, "zed")
	prov := testParticipant(t, "prov")

	// Round 1: demand only — a full tradable demand side (zed is the
	// marginal price setter trade reduction drops), but no supply.
	for _, s := range []struct {
		p   *Participant
		req *bidding.Request
	}{
		{alice, request("r-alice", 2, 10)},
		{bob, request("r-bob", 2, 8)},
		{zed, request("r-zed", 2, 2)},
	} {
		bid, err := s.p.SubmitRequest(s.req)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SubmitBid(bid); err != nil {
			t.Fatal(err)
		}
	}
	res1, err := net.RunRound(context.Background(), []*Participant{alice, bob, zed})
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}
	if len(res1.Outcome.Matches) != 0 {
		t.Fatal("round 1 should not match: no offers")
	}

	// Round 2: supply only — the carried requests must clear even though
	// none of their bids is in block 2.
	bid, err := prov.SubmitOffer(offer("o-late", 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SubmitBid(bid); err != nil {
		t.Fatal(err)
	}
	res2, err := net.RunRound(context.Background(), []*Participant{prov})
	if err != nil {
		t.Fatalf("round 2: %v", err)
	}
	if len(res2.Outcome.Matches) == 0 {
		t.Fatal("round 2: carried requests did not clear against the late offer")
	}
	for _, m := range res2.Outcome.Matches {
		if m.Request.ID != "r-alice" && m.Request.ID != "r-bob" {
			t.Fatalf("round 2 matched unexpected request %s", m.Request.ID)
		}
	}
	if net.Chain().Len() != 2 {
		t.Fatalf("chain length = %d", net.Chain().Len())
	}
}

// TestRivalBlocksRaceIntoOneVerifier: two valid blocks for the same
// height reach an incremental verifier at once, a hundred heights in a
// row. Accept holds the miner's book lock from catch-up to absorb, so
// exactly one lands and the other fails linkage — never a spurious
// allocation mismatch from a preview against a book the rival's block
// had just moved, never a diverged book — and the book has absorbed
// exactly the chain. The losing producer replays the winner's block
// (SyncBook) before it builds on it.
func TestRivalBlocksRaceIntoOneVerifier(t *testing.T) {
	cfg := incrementalConfig()
	newMiner := func(name string) *Miner {
		return &Miner{Name: name, Difficulty: testDifficulty, AuctionCfg: cfg, Book: book.New(cfg)}
	}
	verifier, rivals := newMiner("verifier"), []*Miner{newMiner("rival-a"), newMiner("rival-b")}
	chain := ledger.NewChain()
	for h := 0; h < 100; h++ {
		blocks := make([]*ledger.Block, len(rivals))
		for k, m := range rivals {
			if err := m.SyncBook(chain); err != nil {
				t.Fatalf("height %d: %s: %v", h, m.Name, err)
			}
			p := testParticipant(t, fmt.Sprintf("race-%d-%d", h, k))
			var bids []*sealed.Bid
			for i, value := range []float64{9, 3} { // the cheaper one carries
				bid, err := p.SubmitRequest(request(fmt.Sprintf("r-%d-%d-%d", h, k, i), 2, value))
				if err != nil {
					t.Fatal(err)
				}
				bids = append(bids, bid)
			}
			bid, err := p.SubmitOffer(offer(fmt.Sprintf("o-%d-%d", h, k), 2, 1))
			if err != nil {
				t.Fatal(err)
			}
			b := m.AssembleBlockAt(chain.HeadHash(), int64(h), append(bids, bid), int64(h+1))
			if err := m.Mine(context.Background(), b, uint64(k)<<48); err != nil {
				t.Fatal(err)
			}
			if _, err := m.ComputeBody(b, p.RevealsIn(sealed.NewIndex(b.Bids))); err != nil {
				t.Fatal(err)
			}
			blocks[k] = b
		}
		errs := make([]error, len(blocks))
		var wg sync.WaitGroup
		for k := range blocks {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				errs[k] = verifier.Accept(chain, blocks[k])
			}(k)
		}
		wg.Wait()
		landed := 0
		for k, err := range errs {
			switch {
			case err == nil:
				landed++
			case !errors.Is(err, ledger.ErrBadLinkage):
				t.Fatalf("height %d: %s's block: %v, want accepted or ErrBadLinkage", h, rivals[k].Name, err)
			}
		}
		if landed != 1 || chain.Len() != h+1 || verifier.Book.Blocks() != chain.Len() {
			t.Fatalf("height %d: %d blocks landed, chain %d, book %d", h, landed, chain.Len(), verifier.Book.Blocks())
		}
	}
}
