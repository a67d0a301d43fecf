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

// TestLoadClientRoundTrip: one LoadClient carries two virtual identities
// over a single connection through a full round — seal, publish, reveal
// on preamble, and commit accounting with latency samples when the block
// lands.
func TestLoadClientRoundTrip(t *testing.T) {
	mn, err := NewMarketNode("lc-m0", "127.0.0.1:0", 8, auction.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mn.Close() })

	reg := obs.NewRegistry()
	lat := reg.Histogram("lc_commit_seconds", "submit→commit", []float64{0.1, 1, 10})
	lc, err := NewLoadClient("lc-gen", "127.0.0.1:0", make([]io.Reader, 2), lat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	lc.SetLimits(Limits{MaxFrameBytes: 8 * 1024 * 1024})
	lc.SetFaults(nil)
	if lc.Clients() != 2 {
		t.Fatalf("clients = %d, want 2", lc.Clients())
	}
	if lc.ClientID(0) == lc.ClientID(1) {
		t.Fatal("virtual identities must be distinct")
	}
	if lc.ClientID(2) != lc.ClientID(0) {
		t.Fatal("client index must wrap modulo Clients()")
	}
	if err := lc.Connect(mn.Addr()); err != nil {
		t.Fatal(err)
	}

	mkReq := func(id string, value float64) *bidding.Request {
		return &bidding.Request{
			ID:        bidding.OrderID(id),
			Resources: resource.Vector{resource.CPU: 2, resource.RAM: 8},
			Start:     0, End: 100, Duration: 100,
			Bid: value,
		}
	}
	// The seal/publish split: the digest is known before the bid can
	// possibly reach the network.
	bid, err := lc.SealRequest(0, mkReq("lr-0", 10))
	if err != nil {
		t.Fatal(err)
	}
	digest := bid.Digest()
	if err := lc.Publish("lr-0", bid); err != nil {
		t.Fatal(err)
	}
	if d, err := lc.SubmitRequest(1, mkReq("lr-1", 8)); err != nil {
		t.Fatal(err)
	} else if d == digest {
		t.Fatal("distinct bids share a digest")
	}
	if _, err := lc.SubmitOffer(0, &bidding.Offer{
		ID:        "lo-0",
		Resources: resource.Vector{resource.CPU: 8, resource.RAM: 32},
		Start:     0, End: 100,
		Bid: 0.5,
	}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "bids pooled", func() bool { return mn.MempoolSize() == 3 })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := mn.ProduceBlockOpts(ctx, RoundConfig{RevealWindow: 3 * time.Second}); err != nil {
		t.Fatalf("round failed: %v", err)
	}

	waitFor(t, "commits observed", func() bool {
		_, committed, _ := lc.Counts()
		return committed == 3
	})
	submitted, committed, matched := lc.Counts()
	if submitted != 3 || committed != 3 {
		t.Fatalf("counts: submitted %d committed %d, want 3/3", submitted, committed)
	}
	if matched == 0 {
		t.Fatal("no request of ours appears in the committed allocation")
	}
	if sum := lat.Snapshot().Summarize(); sum.Count != 3 || sum.P50 <= 0 {
		t.Fatalf("latency samples: %+v", sum)
	}
}

// TestLoadClientDuplicateBlockCountedOnce: a re-delivered block (chaos
// dup, competing relay) must not double-count commits or matches.
func TestLoadClientDuplicateBlockCountedOnce(t *testing.T) {
	mn, err := NewMarketNode("dup-m0", "127.0.0.1:0", 8, auction.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mn.Close() })
	lc, err := NewLoadClient("dup-gen", "127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if lc.Clients() != 1 {
		t.Fatalf("nil entropy must default to one identity, got %d", lc.Clients())
	}
	if err := lc.Connect(mn.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.SubmitRequest(0, &bidding.Request{
		ID:        "dup-r",
		Resources: resource.Vector{resource.CPU: 1},
		Start:     0, End: 10, Duration: 10,
		Bid: 5,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "bid pooled", func() bool { return mn.MempoolSize() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := mn.ProduceBlockOpts(ctx, RoundConfig{RevealWindow: 3 * time.Second}); err != nil {
		t.Fatalf("round failed: %v", err)
	}
	waitFor(t, "commit observed", func() bool {
		_, committed, _ := lc.Counts()
		return committed == 1
	})

	// Re-deliver the committed block straight into the handler.
	head := mn.Chain().Head()
	payload, err := ledger.AppendBlock(nil, head)
	if err != nil {
		t.Fatal(err)
	}
	lc.onBlock(Message{Type: msgBlock, Payload: payload})
	if _, committed, _ := lc.Counts(); committed != 1 {
		t.Fatalf("duplicate block double-counted: committed = %d", committed)
	}
}

// deliverDuringBroadcast runs deliver in the middle of the node's own
// Broadcast of a bid — the instant at which a fast producer's block can
// already be on its way back.
type deliverDuringBroadcast struct{ deliver func() }

func (d deliverDuringBroadcast) PlanDelivery(node, from, msgType string, key [32]byte) []time.Duration {
	if msgType == msgBid {
		d.deliver()
	}
	return nil
}

// TestLoadClientCountsACommitThatBeatsPublish: the block carrying a bid
// may reach the client before Publish has returned. The bid must be on
// the client's books by then, or it is never counted committed and its
// submitter waits for it forever.
func TestLoadClientCountsACommitThatBeatsPublish(t *testing.T) {
	lc, err := NewLoadClient("early-gen", "127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	bid, err := lc.SealRequest(0, &bidding.Request{
		ID:        "early-r",
		Resources: resource.Vector{resource.CPU: 1},
		Start:     0, End: 10, Duration: 10,
		Bid: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := &miner.Miner{Name: "early-m0", AuctionCfg: auction.DefaultConfig()}
	block := m.AssembleBlockAt([32]byte{}, 0, []*sealed.Bid{bid}, 1)
	if err := m.Mine(context.Background(), block, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ComputeBody(block, nil); err != nil {
		t.Fatal(err)
	}
	payload, err := ledger.AppendBlock(nil, block)
	if err != nil {
		t.Fatal(err)
	}
	lc.SetFaults(deliverDuringBroadcast{func() { lc.onBlock(Message{Type: msgBlock, Payload: payload}) }})
	if err := lc.Publish("early-r", bid); err != nil {
		t.Fatal(err)
	}
	if submitted, committed, _ := lc.Counts(); submitted != 1 || committed != 1 {
		t.Fatalf("submitted %d, committed %d; the block that arrived during Publish was not counted", submitted, committed)
	}
}

// TestLoadClientCommitCountedOnceAcrossBlocks: a bid carried by two
// distinct blocks, one of them delivered twice, counts one commit and
// one latency sample.
func TestLoadClientCommitCountedOnceAcrossBlocks(t *testing.T) {
	lat := obs.NewRegistry().Histogram("commit_seconds", "", nil)
	lc, err := NewLoadClient("twice-gen", "127.0.0.1:0", nil, lat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	bid, err := lc.SealRequest(0, &bidding.Request{
		ID:        "twice-r",
		Resources: resource.Vector{resource.CPU: 1},
		Start:     0, End: 10, Duration: 10,
		Bid: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lc.Publish("twice-r", bid); err != nil {
		t.Fatal(err)
	}
	m := &miner.Miner{Name: "twice-m0", AuctionCfg: auction.DefaultConfig()}
	var payloads [][]byte
	for height := int64(0); height < 2; height++ {
		block := m.AssembleBlockAt([32]byte{}, height, []*sealed.Bid{bid}, height+1)
		if err := m.Mine(context.Background(), block, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ComputeBody(block, nil); err != nil {
			t.Fatal(err)
		}
		payload, err := ledger.AppendBlock(nil, block)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, payload)
	}
	for _, p := range [][]byte{payloads[0], payloads[0], payloads[1]} {
		lc.onBlock(Message{Type: msgBlock, Payload: p})
	}
	if _, committed, _ := lc.Counts(); committed != 1 {
		t.Fatalf("committed = %d, want 1", committed)
	}
	if n := lat.Snapshot().Count; n != 1 {
		t.Fatalf("latency samples = %d, want 1", n)
	}
}

// TestLoadClientShardedConns: a LoadClient sharded over three TCP
// connections still speaks the protocol exactly once — bids submitted
// on every connection all pool, preambles are answered with one reveal
// batch (control connection only), and commit accounting matches a
// single-connection client's.
func TestLoadClientShardedConns(t *testing.T) {
	mn, err := NewMarketNode("sc-m0", "127.0.0.1:0", 8, auction.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mn.Close() })

	lc, err := NewLoadClientConns("sc-gen", "127.0.0.1:0", make([]io.Reader, 3), nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if lc.Conns() != 3 {
		t.Fatalf("conns = %d, want 3", lc.Conns())
	}
	if err := lc.Connect(mn.Addr()); err != nil {
		t.Fatal(err)
	}

	// One order per connection, including a conn index past the end to
	// prove the modulo wrap.
	for i, conn := range []int{0, 1, 5} {
		if _, err := lc.SubmitRequestOn(conn, i, &bidding.Request{
			ID:        bidding.OrderID(fmt.Sprintf("sc-r%d", i)),
			Resources: resource.Vector{resource.CPU: 2, resource.RAM: 4},
			Start:     0, End: 100, Duration: 100,
			Bid: 10 - float64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lc.SubmitOfferOn(2, 0, &bidding.Offer{
		ID:        "sc-o0",
		Resources: resource.Vector{resource.CPU: 16, resource.RAM: 64},
		Start:     0, End: 100,
		Bid: 0.5,
	}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "bids pooled", func() bool { return mn.MempoolSize() == 4 })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := mn.ProduceBlockOpts(ctx, RoundConfig{RevealWindow: 3 * time.Second}); err != nil {
		t.Fatalf("round failed: %v", err)
	}
	waitFor(t, "commits observed", func() bool {
		_, committed, _ := lc.Counts()
		return committed == 4
	})
	submitted, committed, matched := lc.Counts()
	if submitted != 4 || committed != 4 {
		t.Fatalf("counts: submitted %d committed %d, want 4/4", submitted, committed)
	}
	if matched == 0 {
		t.Fatal("no request of ours appears in the committed allocation")
	}
}
