package p2p

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"sync"
	"testing"
	"time"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/ledger"
	"decloud/internal/resource"
	"decloud/internal/sealed"
)

const testDifficulty = 8

// detReader yields deterministic entropy for reproducible identities.
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

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestGossipFloodsAcrossLineTopology(t *testing.T) {
	// a — b — c: a message broadcast at a must reach c through b, exactly
	// once.
	a, err := Listen("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := Listen("c", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(c.Addr()); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var got []string
	c.Handle("ping", func(m Message) {
		mu.Lock()
		got = append(got, string(m.Payload))
		mu.Unlock()
	})
	if err := a.Broadcast("ping", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "flooded message", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 1
	})
	time.Sleep(50 * time.Millisecond) // allow any duplicate to arrive
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("got %v, want exactly one hello", got)
	}
}

func TestGossipDedupInCycle(t *testing.T) {
	// a — b, b — c, c — a: flooding in a cycle must not loop forever and
	// must deliver exactly once per node.
	nodes := make([]*Node, 3)
	for i, name := range []string{"a", "b", "c"} {
		n, err := Listen(name, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
	}
	if err := nodes[0].Connect(nodes[1].Addr()); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Connect(nodes[2].Addr()); err != nil {
		t.Fatal(err)
	}
	if err := nodes[2].Connect(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	count := make(map[string]int)
	for _, n := range nodes[1:] {
		name := n.Name()
		n.Handle("x", func(Message) {
			mu.Lock()
			count[name]++
			mu.Unlock()
		})
	}
	if err := nodes[0].Broadcast("x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cycle delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(count) == 2
	})
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for name, c := range count {
		if c != 1 {
			t.Fatalf("node %s got %d copies", name, c)
		}
	}
}

// marketTopology builds three miner nodes (fully meshed) plus client and
// provider participant endpoints — one identity each — connected to the
// first miner.
func marketTopology(t *testing.T) (miners []*MarketNode, clients []*LoadClient) {
	t.Helper()
	cfg := auction.DefaultConfig()
	for i, name := range []string{"m0", "m1", "m2"} {
		mn, err := NewMarketNode(name, "127.0.0.1:0", testDifficulty, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mn.Close() })
		miners = append(miners, mn)
		for j := 0; j < i; j++ {
			if err := mn.Connect(miners[j].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range []string{"alice", "bob", "zed", "prov"} {
		pc := newTestClient(t, name)
		if err := pc.Connect(miners[0].Addr()); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, pc)
	}
	return miners, clients
}

// newTestClient starts a participant endpoint with one deterministic
// identity, closed with the test.
func newTestClient(t *testing.T, name string) *LoadClient {
	t.Helper()
	pc, err := NewLoadClient(name, "127.0.0.1:0", []io.Reader{newDetReader(name)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	return pc
}

func submitTestMarket(t *testing.T, clients []*LoadClient) {
	t.Helper()
	mkReq := func(id string, value float64) *bidding.Request {
		return &bidding.Request{
			ID:        bidding.OrderID(id),
			Resources: resource.Vector{resource.CPU: 2, resource.RAM: 8},
			Start:     0, End: 100, Duration: 100,
			Bid: value,
		}
	}
	if _, err := clients[0].SubmitRequest(0, mkReq("r-alice", 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[1].SubmitRequest(0, mkReq("r-bob", 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[2].SubmitRequest(0, mkReq("r-zed", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[3].SubmitOffer(0, &bidding.Offer{
		ID:        "o-prov",
		Resources: resource.Vector{resource.CPU: 8, resource.RAM: 32},
		Start:     0, End: 100,
		Bid: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkedProtocolRound(t *testing.T) {
	miners, clients := marketTopology(t)
	submitTestMarket(t, clients)

	// Bids gossip to every miner's mempool.
	for _, mn := range miners {
		waitFor(t, "mempool sync at "+mn.Name(), func() bool { return mn.MempoolSize() == 4 })
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	summary, err := miners[0].ProduceBlockOpts(ctx, RoundConfig{Quorum: 2 /* both other miners */, RevealWindow: 3 * time.Second})
	if err != nil {
		t.Fatalf("round failed: %v", err)
	}
	if summary.Unrevealed != 0 {
		t.Fatalf("unrevealed bids: %d", summary.Unrevealed)
	}
	if len(summary.Outcome.Matches) == 0 {
		t.Fatal("no trades over the network")
	}
	if summary.OKVotes < 2 || summary.BadVotes != 0 {
		t.Fatalf("votes: ok=%d bad=%d", summary.OKVotes, summary.BadVotes)
	}
	// Every replica holds the same block.
	head := miners[0].Chain().Head().Preamble.Hash()
	for _, mn := range miners[1:] {
		waitFor(t, "chain sync at "+mn.Name(), func() bool { return mn.Chain().Len() == 1 })
		if mn.Chain().Head().Preamble.Hash() != head {
			t.Fatalf("replica %s diverged", mn.Name())
		}
	}
}

func TestNetworkedTamperedBlockVotedDown(t *testing.T) {
	miners, clients := marketTopology(t)
	submitTestMarket(t, clients)
	for _, mn := range miners {
		waitFor(t, "mempool sync", func() bool { return mn.MempoolSize() == 4 })
	}

	// A cheating producer: run the normal phases but corrupt the body
	// before broadcasting the block.
	cheater := miners[0]
	mnNet := cheater.net

	mnNet.Handle(msgVote, func(Message) {}) // votes also counted by voteCh

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Reproduce ProduceBlockOpts's steps manually with a tamper in between.
	bids := cheater.pool.Drain()
	block := cheater.miner.AssembleBlockAt(cheater.chain.HeadHash(), int64(cheater.chain.Len()), bids, time.Now().Unix())
	if err := cheater.miner.Mine(ctx, block, 0); err != nil {
		t.Fatal(err)
	}
	cheater.openRevealIntake(block.Bids, sealed.Digests(block.Bids))
	defer cheater.closeRevealIntake()
	if err := cheater.broadcastBlock(msgPreamble, block); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all four reveals", func() bool { return cheater.unrevealed() == 0 })
	reveals, _ := cheater.closeRevealIntake()
	if _, err := cheater.miner.ComputeBody(block, reveals); err != nil {
		t.Fatal(err)
	}
	// Tamper: inflate the first payment, rehash so the block is
	// structurally valid but semantically wrong.
	records, err := ledger.DecodeAllocation(block.Body.Allocation)
	if err != nil || len(records) == 0 {
		t.Fatalf("no records to tamper: %v", err)
	}
	records[0].Payment *= 100
	forged, _ := json.Marshal(records)
	block.Body = ledger.NewBody(block.Body.Reveals, forged)
	if err := cheater.broadcastBlock(msgBlock, block); err != nil {
		t.Fatal(err)
	}

	// Both honest miners must vote the block down and refuse to append.
	bad := 0
	voteTimer := time.After(5 * time.Second)
	for bad < 2 {
		select {
		case v := <-cheater.voteCh:
			if v.OK {
				t.Fatalf("honest miner %s accepted a forged block", v.Voter)
			}
			bad++
		case <-voteTimer:
			t.Fatalf("only %d rejections arrived", bad)
		}
	}
	for _, mn := range miners[1:] {
		if mn.Chain().Len() != 0 {
			t.Fatalf("replica %s appended a forged block", mn.Name())
		}
	}
}

// duplicateVotes delivers every vote twice at the node it is installed on.
type duplicateVotes struct{}

func (duplicateVotes) PlanDelivery(node, from, msgType string, key [32]byte) []time.Duration {
	if msgType == msgVote {
		return []time.Duration{0, 0}
	}
	return nil
}

// TestDuplicatedVoteIsOneVoter: a quorum counts voters, not vote
// deliveries. With one verifier and every vote delivered twice at the
// producer, a quorum of two is never reached.
func TestDuplicatedVoteIsOneVoter(t *testing.T) {
	producer, _ := observedNode(t, "dupvote-p")
	verifier, _ := observedNode(t, "dupvote-v")
	producer.SetFaults(duplicateVotes{})
	if err := verifier.Connect(producer.Addr()); err != nil {
		t.Fatal(err)
	}
	lc := newTestClient(t, "dupvote-lc")
	if err := lc.Connect(producer.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.SubmitRequest(0, testRequest("r-dup", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.SubmitOffer(0, testOffer("o-dup")); err != nil {
		t.Fatal(err)
	}
	for _, mn := range []*MarketNode{producer, verifier} {
		mn := mn
		waitFor(t, "bids pooled at "+mn.Name(), func() bool { return mn.MempoolSize() == 2 })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	sum, err := producer.ProduceBlockOpts(ctx, RoundConfig{Quorum: 2, RevealWindow: time.Second})
	if err == nil {
		t.Fatalf("one verifier's duplicated vote made a quorum of two: %d ok", sum.OKVotes)
	}
	if sum == nil || sum.OKVotes != 1 || sum.BadVotes != 0 {
		t.Fatalf("round: %+v, %v; want 1 OK vote and no quorum", sum, err)
	}
}

func TestBadBidRejectedAtNode(t *testing.T) {
	cfg := auction.DefaultConfig()
	mn, err := NewMarketNode("m", "127.0.0.1:0", testDifficulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	bid, err := newTestClient(t, "p").SealRequest(0, &bidding.Request{
		ID:        "r",
		Resources: resource.Vector{resource.CPU: 1},
		Start:     0, End: 10, Duration: 10, Bid: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	bid.Envelope[0] ^= 1
	if err := mn.SubmitBid(bid); err == nil {
		t.Fatal("forged bid accepted by node")
	}
}

func TestProduceBlockEmptyMempool(t *testing.T) {
	mn, err := NewMarketNode("m", "127.0.0.1:0", testDifficulty, auction.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	if _, err := mn.ProduceBlockOpts(context.Background(), RoundConfig{RevealWindow: time.Millisecond}); err == nil {
		t.Fatal("empty mempool produced a block")
	}
}

func TestBroadcastAfterClose(t *testing.T) {
	n, err := Listen("x", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Broadcast("t", nil); err != ErrClosed {
		t.Fatalf("broadcast after close: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestSilentParticipantTimesOutAndIsExcluded(t *testing.T) {
	miners, clients := marketTopology(t)
	submitTestMarket(t, clients)
	// A ghost submits a bid but its client is closed before the preamble,
	// so no reveal ever arrives.
	ghost := newTestClient(t, "ghost")
	if err := ghost.Connect(miners[0].Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := ghost.SubmitRequest(0, &bidding.Request{
		ID:        "r-ghost",
		Resources: resource.Vector{resource.CPU: 2, resource.RAM: 8},
		Start:     0, End: 100, Duration: 100,
		Bid: 99,
	}); err != nil {
		t.Fatal(err)
	}
	for _, mn := range miners {
		waitFor(t, "mempool sync", func() bool { return mn.MempoolSize() == 5 })
	}
	ghost.Close() // silent forever

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	// Short reveal window: the round completes without the ghost.
	summary, err := miners[0].ProduceBlockOpts(ctx, RoundConfig{Quorum: 2, RevealWindow: 1500 * time.Millisecond})
	if err != nil {
		t.Fatalf("round failed: %v", err)
	}
	if summary.Unrevealed != 1 {
		t.Fatalf("unrevealed = %d, want 1", summary.Unrevealed)
	}
	records, err := ledger.DecodeAllocation(summary.Block.Body.Allocation)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if rec.RequestID == "r-ghost" {
			t.Fatal("unrevealed bid traded")
		}
	}
	if summary.OKVotes < 2 {
		t.Fatalf("verifiers should accept the block without the ghost: %d ok", summary.OKVotes)
	}
}
