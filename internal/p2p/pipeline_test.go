package p2p

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"decloud/internal/bidding"
	"decloud/internal/obs"
	"decloud/internal/resource"
)

// submitRoundMarket submits one round's market with round-unique order
// IDs — three requests at descending valuations plus one covering offer.
func submitRoundMarket(t *testing.T, clients []*ParticipantClient, round int) {
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
		if err := clients[i].SubmitRequest(mkReq(fmt.Sprintf("r%d-%d", round, i), value)); err != nil {
			t.Fatal(err)
		}
	}
	if err := clients[3].SubmitOffer(&bidding.Offer{
		ID:        bidding.OrderID(fmt.Sprintf("o%d-prov", round)),
		Resources: resource.Vector{resource.CPU: 8, resource.RAM: 32},
		Start:     0, End: 100,
		Bid: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedRoundsOverTCP drives the two-stage pipeline over real
// gossip: three epochs where each round's reveal collection overlaps the
// previous round's vote collection. Every round must clear its market,
// reach quorum, and leave all three replicas with identical fully-linked
// chains.
func TestPipelinedRoundsOverTCP(t *testing.T) {
	miners, clients := marketTopology(t)
	reg := obs.NewRegistry()
	miners[0].SetObs(obs.NewMinerMetrics(reg))

	const rounds = 3
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sums, err := miners[0].RunPipeline(ctx, rounds, RoundConfig{
		Quorum: 2, RevealWindow: 2 * time.Second, RevealRetries: 2,
	}, func(r int) error {
		submitRoundMarket(t, clients, r)
		// Bids must finish gossiping before the producer drains its pool.
		waitFor(t, "mempool sync", func() bool { return miners[0].MempoolSize() == 4 })
		return nil
	})
	if err != nil {
		t.Fatalf("pipeline failed: %v", err)
	}
	if len(sums) != rounds {
		t.Fatalf("got %d round summaries, want %d", len(sums), rounds)
	}
	for r, s := range sums {
		if s.Err != nil {
			t.Fatalf("round %d failed: %v", r, s.Err)
		}
		if s.Summary.Unrevealed != 0 {
			t.Fatalf("round %d left %d bids unrevealed", r, s.Summary.Unrevealed)
		}
		if len(s.Summary.Outcome.Matches) == 0 {
			t.Fatalf("round %d cleared no trades", r)
		}
		if s.Summary.OKVotes < 2 || s.Summary.BadVotes != 0 {
			t.Fatalf("round %d votes: ok=%d bad=%d", r, s.Summary.OKVotes, s.Summary.BadVotes)
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
		waitFor(t, "admitted set drained at "+mn.Name(), func() bool { return mn.admitted.Len() == 0 })
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
		if got := miners[0].admitted.Len(); got != 0 {
			t.Fatalf("%d bids still admitted after the closing node discarded its round", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer still blocked in the reveal window 5s after Close")
	}
}
