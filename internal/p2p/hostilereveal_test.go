package p2p

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"decloud/internal/ledger"
	"decloud/internal/miner"
	"decloud/internal/sealed"
)

const revealsRefused = "decloud_miner_reveals_refused_total"

// delayRevealsFrom holds back one peer's reveal frames at the node it is
// installed on, so that anybody else's answer to a preamble lands first.
type delayRevealsFrom struct {
	from string
	by   time.Duration
}

func (d delayRevealsFrom) PlanDelivery(node, from, msgType string, key [32]byte) []time.Duration {
	if msgType == msgReveals && from == d.from {
		return []time.Duration{d.by}
	}
	return nil
}

// junkKey is a well-formed temporary key that opens nothing.
func junkKey(seed string) []byte {
	k := sha256.Sum256([]byte("junk key " + seed))
	return k[:]
}

// TestForgedRevealCannotCensor: a peer that sees a preamble can say
// anything about anybody's bid, and says it first. The producer must keep
// waiting for a reveal that opens the committed envelope, so every bid
// clears — in one reveal window, on the producer and on the verifier.
func TestForgedRevealCannotCensor(t *testing.T) {
	producer, regP := observedNode(t, "censor-p")
	verifier, _ := observedNode(t, "censor-v")
	producer.SetFaults(delayRevealsFrom{from: "censor-honest", by: 300 * time.Millisecond})
	if err := verifier.Connect(producer.Addr()); err != nil {
		t.Fatal(err)
	}

	// Mallory answers every preamble with a junk key for every committed
	// digest. It needs no identity and no signature to do so.
	mallory, err := Listen("censor-mallory", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mallory.Close() })
	mallory.Handle(msgPreamble, func(m Message) {
		block, err := ledger.DecodeBlock(m.Payload)
		if err != nil {
			return
		}
		forged := make([]*sealed.KeyReveal, len(block.Bids))
		for i, b := range block.Bids {
			forged[i] = &sealed.KeyReveal{BidDigest: b.Digest(), Key: junkKey(fmt.Sprint(i))}
		}
		if payload, err := sealed.AppendReveals(nil, forged); err == nil {
			_ = mallory.Broadcast(msgReveals, payload)
		}
	})
	if err := mallory.Connect(producer.Addr()); err != nil {
		t.Fatal(err)
	}

	entropy := make([]io.Reader, 4)
	for i := range entropy {
		entropy[i] = newDetReader(fmt.Sprintf("censor-id-%d", i))
	}
	lc, err := NewLoadClient("censor-honest", "127.0.0.1:0", entropy, nil)
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
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sum, err := producer.ProduceBlockOpts(ctx, RoundConfig{Quorum: 1, RevealWindow: 5 * time.Second, RevealRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Unrevealed != 0 || sum.RevealAttempts != 1 {
		t.Fatalf("%d unrevealed after %d reveal attempt(s), want 0 after 1", sum.Unrevealed, sum.RevealAttempts)
	}
	dec := miner.DecryptOrders(sum.Block.Bids, sum.Block.Body.Reveals)
	if dec.Rejected != 0 || dec.Unrevealed != 0 || len(dec.Requests)+len(dec.Offers) != n {
		t.Fatalf("forged reveals censored committed bids: %d of %d opened, %d rejected, %d unrevealed",
			len(dec.Requests)+len(dec.Offers), n, dec.Rejected, dec.Unrevealed)
	}
	if len(sum.Outcome.Matches) == 0 {
		t.Fatal("nothing traded")
	}
	if got := producer.RevealFrames(); got < 2 {
		t.Fatalf("producer saw %d reveal frame(s); the forged one never raced the honest one", got)
	}
	if sum.OKVotes != 1 || sum.BadVotes != 0 {
		t.Fatalf("votes: %d ok, %d bad", sum.OKVotes, sum.BadVotes)
	}
	if got := regP.CounterValue(revealsRefused); got < n {
		t.Fatalf("%s = %d after %d forged reveals", revealsRefused, got, n)
	}
}

// intakeLen reads the reveal intake buffer's length as a gossip handler
// would find it.
func intakeLen(mn *MarketNode) int {
	mn.revealMu.Lock()
	defer mn.revealMu.Unlock()
	return len(mn.pendingReveals)
}

// TestRevealFloodIsBounded: while a round is open the intake holds at
// most one reveal per digest the round still wants, whatever is thrown
// at it — junk keys for wanted digests, the valid reveals over and over,
// reveals for digests nobody committed — and the round commits
// every bid as soon as the last valid reveal arrives. Between rounds it
// holds nothing.
func TestRevealFloodIsBounded(t *testing.T) {
	mn, reg := observedNode(t, "flood")
	const n = 8
	parts := make([]*miner.Participant, n)
	bids := make([]*sealed.Bid, n)
	for i := range parts {
		p, err := miner.NewParticipant(newDetReader(fmt.Sprintf("flood-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == n-1 {
			bids[i], err = p.SubmitOffer(testOffer("o-flood"))
		} else {
			bids[i], err = p.SubmitRequest(testRequest(fmt.Sprintf("r-%d", i), float64(3+i)))
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := mn.SubmitBid(bids[i]); err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}
	valid := miner.RevealAll(parts, sealed.NewIndex(bids))
	if len(valid) != n {
		t.Fatalf("%d reveals for %d bids", len(valid), n)
	}

	// One batch of the flood: every wanted digest under a junk key, every
	// valid reveal but the withheld one (twice), unwanted digests. (A nil
	// reveal, once part of the flood, has no encoding.) The withheld
	// reveal keeps the round open for the whole flood.
	batch := func(round int) Message {
		var krs []*sealed.KeyReveal
		for i, kr := range valid {
			krs = append(krs, &sealed.KeyReveal{BidDigest: kr.BidDigest, Key: junkKey(fmt.Sprint(round, i))})
			if i > 0 {
				krs = append(krs, kr, kr)
			}
		}
		for i := 0; len(krs) < 999; i++ {
			krs = append(krs, &sealed.KeyReveal{
				BidDigest: sha256.Sum256([]byte(fmt.Sprint("unwanted", round, i))),
				Key:       junkKey("unwanted"),
			})
		}
		payload, err := sealed.AppendReveals(nil, krs)
		if err != nil {
			t.Fatal(err)
		}
		return Message{Type: msgReveals, Payload: payload}
	}
	batches := 100 // × 1 000 reveals
	if testing.Short() {
		batches = 10
	}

	type result struct {
		sum *RoundSummary
		err error
	}
	done := make(chan result, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go func() {
		sum, err := mn.ProduceBlockOpts(ctx, RoundConfig{RevealWindow: 60 * time.Second})
		done <- result{sum, err}
	}()
	waitFor(t, "the reveal intake to open", func() bool { return mn.unrevealed() == n })

	// A second observer beside the flooder's own look after every batch.
	var sampler sync.WaitGroup
	stop := make(chan struct{})
	sampled := 0
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if l := intakeLen(mn); l > sampled {
				sampled = l
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	worst := 0
	for r := 0; r < batches; r++ {
		mn.onReveals(batch(r))
		if l := intakeLen(mn); l > worst {
			worst = l
		}
	}
	close(stop)
	sampler.Wait()
	if sampled > worst {
		worst = sampled
	}
	if worst > n {
		t.Errorf("the intake buffered %d reveals while the round wanted %d digests", worst, n)
	}
	select {
	case res := <-done:
		t.Fatalf("the round ended with a reveal withheld: %+v, %v", res.sum, res.err)
	default:
	}

	payload, err := sealed.AppendReveals(nil, valid[:1])
	if err != nil {
		t.Fatal(err)
	}
	mn.onReveals(Message{Type: msgReveals, Payload: payload})
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.sum.Unrevealed != 0 || res.sum.RevealAttempts != 1 || len(res.sum.Block.Bids) != n {
		t.Fatalf("%d bids committed, %d unrevealed, %d reveal attempts", len(res.sum.Block.Bids), res.sum.Unrevealed, res.sum.RevealAttempts)
	}
	dec := miner.DecryptOrders(res.sum.Block.Bids, res.sum.Block.Body.Reveals)
	if dec.Rejected != 0 || dec.Unrevealed != 0 || len(dec.Requests)+len(dec.Offers) != n {
		t.Fatalf("the flood cost committed bids: %d of %d opened, %d rejected, %d unrevealed",
			len(dec.Requests)+len(dec.Offers), n, dec.Rejected, dec.Unrevealed)
	}
	if len(res.sum.Block.Body.Reveals) != n {
		t.Fatalf("the body carries %d reveals for %d bids", len(res.sum.Block.Body.Reveals), n)
	}

	// Every flood reveal was refused, and only those: refusals are counted while a round is open, and nothing of
	// what arrives between rounds is kept or counted.
	refused := int64(batches)*999 - (n - 1)
	if got := reg.CounterValue(revealsRefused); got != refused {
		t.Errorf("%s = %d, want %d", revealsRefused, got, refused)
	}
	mn.onReveals(batch(batches))
	if l := intakeLen(mn); l != 0 {
		t.Errorf("the intake holds %d reveals between rounds", l)
	}
	if got := reg.CounterValue(revealsRefused); got != refused {
		t.Errorf("%s moved to %d between rounds", revealsRefused, got)
	}
}
