package p2p

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/chaos"
	"decloud/internal/ledger"
	"decloud/internal/resource"
)

// p2pSchedules reads the soak width from DECLOUD_CHAOS_SCHEDULES.
func p2pSchedules(t *testing.T, def, short int) int {
	t.Helper()
	if s := os.Getenv("DECLOUD_CHAOS_SCHEDULES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad DECLOUD_CHAOS_SCHEDULES=%q", s)
		}
		if n < def {
			return n
		}
		return def
	}
	if testing.Short() {
		return short
	}
	return def
}

// checkGoroutineLeaks fails if the goroutine count has not settled back
// near before within a grace period.
func checkGoroutineLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
}

// spuriousLogs collects node diagnostics; anything captured during an
// orderly test is a shutdown-noise regression.
type spuriousLogs struct {
	mu   sync.Mutex
	msgs []string
}

func (l *spuriousLogs) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.msgs = append(l.msgs, fmt.Sprintf(format, args...))
}

func (l *spuriousLogs) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.msgs...)
}

// chaosTopology is marketTopology with a fault plan and log capture
// installed on every endpoint before any connection is made.
func chaosTopology(t *testing.T, plan FaultPlan, logs *spuriousLogs) (miners []*MarketNode, clients []*LoadClient) {
	t.Helper()
	cfg := auction.DefaultConfig()
	for i, name := range []string{"m0", "m1", "m2"} {
		mn, err := NewMarketNode(name, "127.0.0.1:0", testDifficulty, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mn.Close() })
		mn.SetFaults(plan)
		mn.SetLogf(logs.logf)
		miners = append(miners, mn)
		for j := 0; j < i; j++ {
			if err := mn.Connect(miners[j].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range []string{"alice", "bob", "zed", "prov"} {
		pc := newTestClient(t, name)
		pc.SetFaults(plan)
		for _, n := range pc.nets {
			n.SetLogf(logs.logf)
		}
		if err := pc.Connect(miners[0].Addr()); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, pc)
	}
	return miners, clients
}

// TestChaosSoakTCP sweeps seeded fault schedules over the real TCP
// deployment: reveal gossip is dropped, delayed, and duplicated, bid
// gossip delayed and duplicated, and every other message type jittered.
// The preamble-rebroadcast retry path must recover lost reveals (or the
// deadline must exclude them from the allocation), the round must reach
// verifier quorum, and every replica must converge on the same head.
func TestChaosSoakTCP(t *testing.T) {
	schedules := p2pSchedules(t, 6, 3)
	before := runtime.NumGoroutine()
	for seed := int64(0); seed < int64(schedules); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%02d", seed), func(t *testing.T) {
			plan := &chaos.Plan{
				Seed:  seed,
				Probs: chaos.Probs{Delay: 0.2, Dup: 0.1, MaxDelaySteps: 2},
				TypeProbs: map[string]chaos.Probs{
					msgReveals: {Drop: 0.4, Delay: 0.3, Dup: 0.2, MaxDelaySteps: 3},
					msgBid:     {Delay: 0.4, Dup: 0.3, MaxDelaySteps: 2},
				},
				Step: 3 * time.Millisecond,
			}
			logs := &spuriousLogs{}
			miners, clients := chaosTopology(t, plan, logs)
			submitTestMarket(t, clients)
			waitFor(t, "producer mempool", func() bool { return miners[0].MempoolSize() == 4 })

			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			summary, err := miners[0].ProduceBlockOpts(ctx, RoundConfig{
				Quorum:        2,
				RevealWindow:  100 * time.Millisecond,
				RevealRetries: 3,
			})
			if err != nil {
				t.Fatalf("seed %d: round failed: %v", seed, err)
			}
			if summary.OKVotes < 2 {
				t.Fatalf("quorum not reached: %d ok", summary.OKVotes)
			}

			// Unrevealed bids must never trade.
			records, err := ledger.DecodeAllocation(summary.Block.Body.Allocation)
			if err != nil {
				t.Fatal(err)
			}
			revealed := make(map[[32]byte]bool)
			for _, kr := range summary.Block.Body.Reveals {
				revealed[kr.BidDigest] = true
			}
			if got := len(summary.Block.Bids) - len(revealed); got != summary.Unrevealed {
				t.Fatalf("block carries %d unrevealed bids, summary says %d", got, summary.Unrevealed)
			}
			if summary.Unrevealed > 0 && len(records) == len(summary.Block.Bids) {
				t.Fatal("every bid traded despite unrevealed ones")
			}

			// Every replica converges to the producer's head.
			head := miners[0].Chain().Head().Preamble.Hash()
			for _, mn := range miners[1:] {
				mn := mn
				waitFor(t, "chain sync at "+mn.Name(), func() bool { return mn.Chain().Len() == 1 })
				if mn.Chain().Head().Preamble.Hash() != head {
					t.Fatalf("replica %s diverged", mn.Name())
				}
			}

			for _, mn := range miners {
				mn.Close()
			}
			for _, pc := range clients {
				pc.Close()
			}
			if msgs := logs.take(); len(msgs) != 0 {
				t.Fatalf("spurious diagnostics: %q", msgs)
			}
		})
	}
	checkGoroutineLeaks(t, before)
}

// TestRevealRetryRecoversDroppedReveal drops every reveal of the first
// attempt at the producer; the preamble re-broadcast must recover them so
// the round completes with no exclusions.
func TestRevealRetryRecoversDroppedReveal(t *testing.T) {
	drop := &dropFirst{msgType: msgReveals, remaining: 4}
	miners, clients := marketTopology(t)
	miners[0].SetFaults(drop)
	submitTestMarket(t, clients)
	for _, mn := range miners {
		mn := mn
		waitFor(t, "mempool sync at "+mn.Name(), func() bool { return mn.MempoolSize() == 4 })
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	summary, err := miners[0].ProduceBlockOpts(ctx, RoundConfig{
		Quorum:        2,
		RevealWindow:  300 * time.Millisecond,
		RevealRetries: 3,
	})
	if err != nil {
		t.Fatalf("round failed: %v", err)
	}
	if summary.Unrevealed != 0 {
		t.Fatalf("retry did not recover: %d unrevealed", summary.Unrevealed)
	}
	if summary.RevealAttempts < 2 {
		t.Fatalf("RevealAttempts = %d, want at least 2", summary.RevealAttempts)
	}
	if len(summary.Outcome.Matches) == 0 {
		t.Fatal("no trades after recovery")
	}
}

// dropFirst drops the first N deliveries of one message type at the node
// it is installed on, then behaves cleanly.
type dropFirst struct {
	msgType   string
	mu        sync.Mutex
	remaining int
}

func (d *dropFirst) PlanDelivery(node, from, msgType string, key [32]byte) []time.Duration {
	if msgType != d.msgType {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.remaining > 0 {
		d.remaining--
		return []time.Duration{}
	}
	return nil
}

// TestDroppedLastBlockIsRecovered: the verifier loses the frame of the
// run's only block. No later block will ever fail linkage there and
// trigger a catch-up, so the drop used to be final; a replica that has
// appended nothing for resyncAfter now asks, the producer answers with
// the block, and the late OK vote completes the producer's quorum.
func TestDroppedLastBlockIsRecovered(t *testing.T) {
	miners, clients := marketTopology(t)
	producer, verifier := miners[0], miners[1]
	miners[2].Close() // two nodes: the dropped frame has no other route
	verifier.SetFaults(&dropFirst{msgType: msgBlock, remaining: 1})
	submitTestMarket(t, clients)
	waitFor(t, "producer mempool", func() bool { return producer.MempoolSize() == 4 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*resyncAfter)
	defer cancel()
	sum, err := producer.ProduceBlockOpts(ctx, RoundConfig{Quorum: 1, RevealWindow: 2 * time.Second, RevealRetries: 2})
	if err != nil {
		t.Fatalf("round failed (the verifier never recovered the dropped block?): %v", err)
	}
	if sum.OKVotes != 1 || sum.BadVotes != 0 {
		t.Fatalf("votes: %d ok, %d bad", sum.OKVotes, sum.BadVotes)
	}
	if got, want := verifier.Chain().HeadHash(), producer.Chain().HeadHash(); got != want {
		t.Fatal("verifier did not converge on the producer's head")
	}
}

// TestCrashRestartMinerResyncs crashes one miner for the first round and
// brings it back for the second: the restarted replica cannot link the
// new block, requests the missing history, catches up to the full chain,
// and its late OK vote still counts toward the producer's quorum.
func TestCrashRestartMinerResyncs(t *testing.T) {
	plan := &chaos.Plan{
		Crashes: []chaos.Crash{{Window: chaos.Window{From: 0, Until: 1}, Node: "m2"}},
	}
	logs := &spuriousLogs{}
	miners, clients := chaosTopology(t, plan, logs)
	submitTestMarket(t, clients)
	waitFor(t, "producer mempool", func() bool { return miners[0].MempoolSize() == 4 })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Round 1 at t=0: m2 is down, so only m1 can vote.
	s1, err := miners[0].ProduceBlockOpts(ctx, RoundConfig{Quorum: 1, RevealWindow: 2 * time.Second, RevealRetries: 2})
	if err != nil {
		t.Fatalf("round 1 failed: %v", err)
	}
	if s1.Unrevealed != 0 {
		t.Fatalf("round 1 unrevealed: %d", s1.Unrevealed)
	}
	if miners[2].Chain().Len() != 0 {
		t.Fatal("crashed miner somehow received the block")
	}

	// m2 restarts.
	plan.SetNow(1)

	// Fresh orders for round 2.
	mkReq := func(id string, value float64) *bidding.Request {
		return &bidding.Request{
			ID:        bidding.OrderID(id),
			Resources: resource.Vector{resource.CPU: 2, resource.RAM: 8},
			Start:     0, End: 100, Duration: 100,
			Bid: value,
		}
	}
	if _, err := clients[0].SubmitRequest(0, mkReq("r2-alice", 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[3].SubmitOffer(0, &bidding.Offer{
		ID:        "o2-prov",
		Resources: resource.Vector{resource.CPU: 8, resource.RAM: 32},
		Start:     0, End: 100,
		Bid: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "round-2 mempool", func() bool { return miners[0].MempoolSize() == 2 })

	// Round 2 at t=1: the restarted m2 must resync before it can vote, and
	// quorum 2 requires that vote.
	s2, err := miners[0].ProduceBlockOpts(ctx, RoundConfig{Quorum: 2, RevealWindow: 2 * time.Second, RevealRetries: 2})
	if err != nil {
		t.Fatalf("round 2 failed (restarted miner never caught up?): %v", err)
	}
	if s2.Block.Preamble.Height != 1 {
		t.Fatalf("round 2 height = %d, want 1", s2.Block.Preamble.Height)
	}

	waitFor(t, "m2 resync", func() bool { return miners[2].Chain().Len() == 2 })
	if miners[2].Chain().Head().Preamble.Hash() != miners[0].Chain().Head().Preamble.Hash() {
		t.Fatal("restarted replica diverged after resync")
	}
	if msgs := logs.take(); len(msgs) != 0 {
		t.Fatalf("spurious diagnostics: %q", msgs)
	}
}

// TestCloseUnderLoad hammers a mesh with concurrent broadcasts and closes
// every node mid-traffic: no panic, no leaked goroutine, no spurious log,
// and post-close broadcasts fail with ErrClosed.
func TestCloseUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	logs := &spuriousLogs{}
	const fleet = 4
	nodes := make([]*Node, fleet)
	for i := range nodes {
		n, err := Listen(fmt.Sprintf("n%d", i), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n.SetLogf(logs.logf)
		n.Handle("load", func(Message) {})
		nodes[i] = n
	}
	for i := range nodes {
		for j := 0; j < i; j++ {
			if err := nodes[i].Connect(nodes[j].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	for _, n := range nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				// Write errors against peers that closed first are expected
				// mid-shutdown; the loop just stops broadcasting.
				if err := n.Broadcast("load", []byte(strconv.Itoa(i))); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond) // let the storm build
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatalf("close under load: %v", err)
		}
	}
	wg.Wait()

	for _, n := range nodes {
		if err := n.Broadcast("late", nil); err != ErrClosed {
			t.Fatalf("broadcast after close: %v, want ErrClosed", err)
		}
		if n.PeerCount() != 0 {
			t.Fatalf("%s still holds %d connections", n.Name(), n.PeerCount())
		}
	}
	if msgs := logs.take(); len(msgs) != 0 {
		t.Fatalf("spurious diagnostics during shutdown: %q", msgs)
	}
	checkGoroutineLeaks(t, before)
}

// TestFaultPlanDuplicatesAreHarmless floods a duplicated-heavy plan
// through the mesh and checks dedup still bounds handler deliveries: a
// duplicate schedule re-dispatches locally but never re-floods, so counts
// stay small and bounded rather than exponential.
func TestFaultPlanDuplicatesAreHarmless(t *testing.T) {
	plan := &chaos.Plan{
		Seed:  11,
		Probs: chaos.Probs{Dup: 1, MaxDelaySteps: 1},
		Step:  time.Millisecond,
	}
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
	b.SetFaults(plan)
	var mu sync.Mutex
	count := 0
	b.Handle("x", func(Message) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Broadcast("x", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "duplicate delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count == 2
	})
	time.Sleep(30 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 2 {
		t.Fatalf("delivered %d times, want exactly 2 (original + one duplicate)", count)
	}
}
