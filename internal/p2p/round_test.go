package p2p

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"decloud/internal/bidding"
	"decloud/internal/ledger"
	"decloud/internal/miner"
	"decloud/internal/obs"
	"decloud/internal/resource"
	"decloud/internal/sealed"
)

// submitRoundMarket submits one round's market with round-unique order
// IDs — three requests at descending valuations plus one covering offer.
func submitRoundMarket(t *testing.T, clients []*LoadClient, round int) {
	t.Helper()
	mkReq := func(id string, value float64) *bidding.Request {
		return &bidding.Request{
			ID:        bidding.OrderID(id),
			Resources: resource.Vector{resource.CPU: 2, resource.RAM: 8},
			Start:     0, End: 100, Duration: 100,
			Bid: value,
		}
	}
	for i, value := range []float64{10, 8, 1} {
		if _, err := clients[i].SubmitRequest(0, mkReq(fmt.Sprintf("r%d-%d", round, i), value)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := clients[3].SubmitOffer(0, &bidding.Offer{
		ID:        bidding.OrderID(fmt.Sprintf("o%d-prov", round)),
		Resources: resource.Vector{resource.CPU: 8, resource.RAM: 32},
		Start:     0, End: 100,
		Bid: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedRoundsOverTCP drives three rounds, one after another,
// over real gossip. Every round must clear its market, reach quorum, and
// leave all three replicas with identical fully-linked chains.
func TestPipelinedRoundsOverTCP(t *testing.T) {
	miners, clients := marketTopology(t)
	reg := obs.NewRegistry()
	miners[0].SetObs(obs.NewMinerMetrics(reg))

	const rounds = 3
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cfg := RoundConfig{Quorum: 2, RevealWindow: 2 * time.Second, RevealRetries: 2}
	for r := 0; r < rounds; r++ {
		submitRoundMarket(t, clients, r)
		// Bids must finish gossiping before the producer drains its pool.
		waitFor(t, "mempool sync", func() bool { return miners[0].MempoolSize() == 4 })
		s, err := miners[0].ProduceBlockOpts(ctx, cfg)
		if err != nil {
			t.Fatalf("round %d failed: %v", r, err)
		}
		if s.Unrevealed != 0 {
			t.Fatalf("round %d left %d bids unrevealed", r, s.Unrevealed)
		}
		if len(s.Outcome.Matches) == 0 {
			t.Fatalf("round %d cleared no trades", r)
		}
		if s.OKVotes < 2 || s.BadVotes != 0 {
			t.Fatalf("round %d votes: ok=%d bad=%d", r, s.OKVotes, s.BadVotes)
		}
	}
	if got := reg.CounterValue("decloud_miner_blocks_accepted_total"); got != rounds {
		t.Fatalf("blocks_accepted_total = %d, want %d", got, rounds)
	}

	// Every replica converges on the same fully-linked chain.
	head := miners[0].Chain().Head().Preamble.Hash()
	for _, mn := range miners {
		mn := mn
		waitFor(t, "chain sync at "+mn.Name(), func() bool { return mn.Chain().Len() == rounds })
		if mn.Chain().Head().Preamble.Hash() != head {
			t.Fatalf("replica %s diverged", mn.Name())
		}
		// A replica marks a block's bids committed just after appending it.
		waitFor(t, "admitted set drained at "+mn.Name(), func() bool { return mn.pool.Verified().Len() == 0 })
	}
	for i := 1; i < rounds; i++ {
		prev := miners[0].Chain().BlockAt(i - 1).Preamble.Hash()
		if miners[0].Chain().BlockAt(i).Preamble.PrevHash != prev {
			t.Fatalf("block %d does not link to its parent", i)
		}
	}
}

// TestCloseAbortsRevealWindow pins the shutdown path of the reveal
// collector: with every participant gone, the producer would sit out a
// 30-second reveal window — Close must wake it immediately (the reveal
// wait selects on the node's stop channel, like the vote wait).
func TestCloseAbortsRevealWindow(t *testing.T) {
	miners, clients := marketTopology(t)
	submitRoundMarket(t, clients, 0)
	waitFor(t, "mempool sync", func() bool { return miners[0].MempoolSize() == 4 })
	for _, pc := range clients {
		pc.Close() // nobody left to answer the reveal request
	}

	done := make(chan error, 1)
	go func() {
		_, err := miners[0].ProduceBlockOpts(context.Background(), RoundConfig{
			Quorum: 2, RevealWindow: 30 * time.Second,
		})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the producer enter the window
	start := time.Now()
	miners[0].Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("aborted round returned %v, want ErrClosed", err)
		}
		if waited := time.Since(start); waited > 2*time.Second {
			t.Fatalf("producer took %v to notice Close", waited)
		}
		if got := miners[0].pool.Verified().Len(); got != 0 {
			t.Fatalf("%d bids still admitted after the closing node discarded its round", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer still blocked in the reveal window 5s after Close")
	}
}

// TestPipelineReturnsBidsOnProduceFailure: a round whose produce stage
// dies — here its context ends inside the reveal window — hands its
// drained bids back to the pool, and keeps doing so for every round that
// dies the same way. The bids stay trusted, and the next round commits
// them.
func TestPipelineReturnsBidsOnProduceFailure(t *testing.T) {
	mn, _ := observedNode(t, "returns")
	const n = 4
	entropy := make([]io.Reader, n)
	for i := range entropy {
		entropy[i] = newDetReader(fmt.Sprintf("returns-%d", i))
	}
	lc, err := NewLoadClient("returns-lc", "127.0.0.1:0", entropy, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.Connect(mn.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		if _, err := lc.SubmitRequest(i, testRequest(fmt.Sprintf("r-%d", i), float64(10-3*i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lc.SubmitOffer(n-1, testOffer("o-prov")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "bids pooled", func() bool { return mn.MempoolSize() == n })
	pooled := func(when string) {
		t.Helper()
		if got, trusted := mn.MempoolSize(), mn.pool.Verified().Len(); got != n || trusted != n {
			t.Fatalf("%s: %d pooled, %d trusted, want %d and %d", when, got, trusted, n, n)
		}
	}

	// Every reveal frame is dropped at the producer, so the reveal window
	// stays open until the round's context ends it.
	mn.SetFaults(&dropFirst{msgType: msgReveals, remaining: math.MaxInt})
	cfg := RoundConfig{RevealWindow: 30 * time.Second}
	for r := 0; r < 2; r++ {
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		_, err := mn.ProduceBlockOpts(ctx, cfg)
		cancel()
		if err == nil || errors.Is(err, miner.ErrEmptyMempool) {
			t.Fatalf("round %d: %v, want a produce-stage failure over the returned bids", r, err)
		}
		pooled(fmt.Sprintf("after round %d's produce stage failed", r))
	}
	if mn.Chain().Len() != 0 {
		t.Fatal("a failed produce stage appended a block")
	}

	mn.SetFaults(nil)
	got, err := mn.ProduceBlockOpts(context.Background(), cfg)
	if err != nil {
		t.Fatalf("retry round: %v", err)
	}
	if len(got.Block.Bids) != n || got.Unrevealed != 0 || len(got.Outcome.Matches) == 0 {
		t.Fatalf("retry committed %d bids, %d unrevealed, %d matches", len(got.Block.Bids), got.Unrevealed, len(got.Outcome.Matches))
	}
	if got, trusted := mn.MempoolSize(), mn.pool.Verified().Len(); got != 0 || trusted != 0 {
		t.Fatalf("%d pooled, %d trusted after the bids committed", got, trusted)
	}
}

// TestRivalBlockMidRound: a rival's block lands on the producer's replica
// while its round collects reveals, so the round's preamble no longer
// links to the head. The driver checks the head before it commits: it
// flushes the round and redoes it on the rival's block, and no bid is
// lost. Both nodes also pooled a shared bid, which the rival's block
// committed: the redo leaves it out, so every digest is on the chain once.
// When the rival's block committed every bid of the round, the redo has
// nothing to produce and the round ends with an empty mempool. The trust
// set is the pool again afterwards.
func TestRivalBlockMidRound(t *testing.T) {
	for _, tc := range []struct {
		name   string
		all    bool // the rival pools the producer's own bid too
		blocks int
	}{
		{name: "rival-commits-some", blocks: 2},
		{name: "rival-commits-all", all: true, blocks: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mn, reg := observedNode(t, "rival-p")
			rival, _ := observedNode(t, "rival-r")
			if err := rival.Connect(mn.Addr()); err != nil {
				t.Fatal(err)
			}
			part, err := miner.NewParticipant(newDetReader("rival"))
			if err != nil {
				t.Fatal(err)
			}
			seal := func(id string) *sealed.Bid {
				bid, err := part.SubmitRequest(testRequest(id, 5))
				if err != nil {
					t.Fatal(err)
				}
				return bid
			}
			// Each node pools one bid of its own and the shared one, none
			// gossiped. Nobody reveals, so windows lapse and blocks commit
			// unrevealed.
			shared, rivalOwn, mnOwn := seal("r-shared"), seal("r-"+rival.Name()), seal("r-"+mn.Name())
			pools := map[*MarketNode][]*sealed.Bid{
				rival: {rivalOwn, shared},
				mn:    {mnOwn, shared},
			}
			if tc.all {
				pools[rival] = append(pools[rival], mnOwn)
			}
			for node, bids := range pools {
				for _, b := range bids {
					if err := node.pool.Admit(b); err != nil {
						t.Fatal(err)
					}
				}
			}
			rivalDone := make(chan error, 1)
			go func() {
				time.Sleep(50 * time.Millisecond) // inside the producer's reveal window
				_, err := rival.ProduceBlockOpts(context.Background(), RoundConfig{RevealWindow: 20 * time.Millisecond})
				rivalDone <- err
			}()
			sum, err := mn.ProduceBlockOpts(context.Background(), RoundConfig{RevealWindow: 400 * time.Millisecond})
			if tc.all {
				if !errors.Is(err, miner.ErrEmptyMempool) {
					t.Fatalf("round whose every bid a rival committed: %v, want ErrEmptyMempool", err)
				}
			} else if err != nil {
				t.Fatalf("round over a moved head: %v", err)
			} else if got := sum.Block.Preamble.Height; got != 1 {
				t.Fatalf("redone round committed at height %d, want 1 (on the rival's block)", got)
			}
			if got := reg.CounterValue("decloud_miner_pipeline_flushes_total"); got != 1 {
				t.Fatalf("pipeline_flushes_total = %d, want 1", got)
			}
			if err := <-rivalDone; err != nil {
				t.Fatalf("rival round: %v", err)
			}
			if got := mn.Chain().Len(); got != tc.blocks {
				t.Fatalf("chain holds %d blocks, want %d", got, tc.blocks)
			}
			onChain := map[[32]byte]int{}
			for h := 0; h < mn.Chain().Len(); h++ {
				for _, b := range mn.Chain().BlockAt(h).Bids {
					onChain[b.Digest()]++
				}
			}
			for _, b := range []*sealed.Bid{rivalOwn, shared, mnOwn} {
				if d := b.Digest(); onChain[d] != 1 {
					t.Fatalf("digest %x is on the chain %d times, want once", d[:4], onChain[d])
				}
			}
			if !tc.all {
				if b := mn.Chain().BlockAt(1); len(b.Bids) != 1 || b.Bids[0].Digest() != mnOwn.Digest() {
					t.Fatalf("the redone block does not hold %s's bid alone", mn.Name())
				}
			}
			if got, trusted := mn.MempoolSize(), mn.pool.Verified().Len(); got != 0 || trusted != 0 {
				t.Fatalf("%d pooled, %d trusted after the round ended", got, trusted)
			}
		})
	}
}

// TestLostSelfAppendReturnsBids: the rival's block lands after the driver
// checked the head, so the self-append itself loses the race for the
// height. Nothing of the round was appended or broadcast: its bids go back
// to the pool, still trusted — but for the one the rival's block committed.
func TestLostSelfAppendReturnsBids(t *testing.T) {
	mn, _ := observedNode(t, "lost-p")
	rival, _ := observedNode(t, "lost-r")
	part, err := miner.NewParticipant(newDetReader("lost"))
	if err != nil {
		t.Fatal(err)
	}
	seal := func(id string) *sealed.Bid {
		bid, err := part.SubmitRequest(testRequest(id, 5))
		if err != nil {
			t.Fatal(err)
		}
		return bid
	}
	shared, mine := seal("r-shared"), seal("r-mine")
	for _, b := range []*sealed.Bid{shared, mine} {
		if err := mn.pool.Admit(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := rival.pool.Admit(shared); err != nil {
		t.Fatal(err)
	}
	ctx, cfg := context.Background(), RoundConfig{RevealWindow: 10 * time.Millisecond}
	rivalSum, err := rival.ProduceBlockOpts(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	prevHash, height := mn.nextParent()
	tr := mn.tracer.Load().StartRound(height)
	pr, err := mn.produceStage(ctx, cfg, prevHash, height, mn.pool.Drain(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := mn.appendVerified(rivalSum.Block); err != nil { // after the head check
		t.Fatal(err)
	}
	if _, err := mn.commitStage(ctx, cfg, pr, tr); !errors.Is(err, ledger.ErrBadLinkage) {
		t.Fatalf("self-append over a moved head: %v, want ErrBadLinkage", err)
	}
	if got := mn.Chain().Len(); got != 1 {
		t.Fatalf("chain holds %d blocks, want the rival's alone", got)
	}
	back := mn.pool.Drain()
	if len(back) != 1 || back[0].Digest() != mine.Digest() {
		t.Fatalf("%d bids back in the pool, want the one the rival did not commit", len(back))
	}
	if !mn.pool.Verified().Has(mine) || mn.pool.Verified().Len() != 1 {
		t.Fatalf("trust set holds %d bids, want the returned one", mn.pool.Verified().Len())
	}
}
