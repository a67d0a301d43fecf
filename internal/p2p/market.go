package p2p

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"decloud/internal/auction"
	"decloud/internal/book"
	"decloud/internal/ledger"
	"decloud/internal/miner"
	"decloud/internal/obs"
	"decloud/internal/sealed"
)

// Wire message types of the two-phase protocol: votes and sync requests
// travel as JSON, everything that carries bids in the binary codecs.
const (
	msgBid      = "bid"      // sealed.AppendBid
	msgPreamble = "preamble" // ledger.AppendBlock of the block without body
	msgReveals  = "reveals"  // sealed.AppendReveals — one frame per participant per round
	msgBlock    = "block"    // ledger.AppendBlock
	msgVote     = "vote"     // vote
	msgSyncReq  = "syncreq"  // syncRequest — a lagging replica asks for blocks
	msgChain    = "chain"    // u8-prefixed recipient ‖ its catch-up blocks, each ledger.AppendBlock
)

// vote is a verifier's verdict on a broadcast block.
type vote struct {
	Voter  string `json:"voter"`
	Height int64  `json:"height"`
	OK     bool   `json:"ok"`
	Err    string `json:"err,omitempty"`
}

// syncRequest asks peers for every block from Height (the requester's
// current chain length) upward — sent by a replica that received a block
// it cannot link, e.g. after a crash-restart, or appended nothing lately.
type syncRequest struct {
	From   string `json:"from"`
	Height int64  `json:"height"`
}

// MarketNode is a miner running the protocol over TCP gossip: it
// maintains a mempool and a chain replica, can produce blocks
// (mine → collect reveals → allocate → broadcast), and verifies and
// votes on blocks produced by others.
// Concurrency: network handlers (onBid/onReveals/onBlock/onVote) run on
// the gossip reader goroutines while ProduceBlockOpts runs on the caller's.
// The discipline is:
//   - pool (miner.Pool) is the only state both sides write: the mempool
//     and the trust set of the bids checked at this node's door, behind
//     the pool's own lock.
//   - miner is written once in NewMarketNode and only read afterwards.
//     A block enters the node — chain and order book together — through
//     miner.Produce (commitStage) or miner.Accept (appendVerified) only;
//     the miner serializes them, so the loser of a race for a height
//     gets ledger.ErrBadLinkage and nothing moved.
//   - chain is internally RWMutex-guarded; appended blocks are treated
//     as immutable (see ledger.Chain).
//   - reveal intake is mutex-guarded and filtered against the open
//     round's wanted set: while a produce stage is collecting, handlers
//     keep a reveal only if its digest is still wanted and its key is the
//     one that committed bid's envelope commits to — at most one reveal
//     per committed digest, whatever arrives; between rounds, and on
//     replicas that never produce, reveals are dropped, not hoarded.
//     voteCh stays a bounded channel with non-blocking sends.
type MarketNode struct {
	net   *Node
	miner *miner.Miner
	chain *ledger.Chain

	pool *miner.Pool

	// metrics/tracer are read on both the producer and the gossip reader
	// goroutines; atomic pointers let SetObs/SetTracer install them after
	// the node is already connected. Nil means off.
	metrics atomic.Pointer[obs.MinerMetrics]
	tracer  atomic.Pointer[obs.Tracer]

	revealMu       sync.Mutex
	revealWant     map[[32]byte]*sealed.Bid // the collecting round's committed bids still unrevealed; nil between rounds
	pendingReveals []*sealed.KeyReveal      // the valid reveal of each of its other bids
	revealSig      chan struct{}            // cap 1, pulsed after appends

	voteCh  chan vote
	saveSig chan struct{} // cap 1, pulsed after every append; read by LoadChain's writer

	// revealFrames counts reveal transport frames received (a batch of n
	// reveals is ONE frame). The batching regression test pins the frame
	// count to O(participants), not O(orders), per round.
	revealFrames atomic.Int64
}

// NewMarketNode starts a miner node listening on addr.
func NewMarketNode(name, addr string, difficulty int, cfg auction.Config) (*MarketNode, error) {
	n, err := Listen(name, addr)
	if err != nil {
		return nil, err
	}
	mn := &MarketNode{
		net:       n,
		miner:     &miner.Miner{Name: name, Difficulty: difficulty, AuctionCfg: cfg},
		chain:     ledger.NewChain(),
		revealSig: make(chan struct{}, 1),
		voteCh:    make(chan vote, 1024),
		saveSig:   make(chan struct{}, 1),
	}
	mn.pool = miner.NewPool(mn.metrics.Load)
	mn.miner.Admitted = mn.pool.Verified()
	mn.miner.Metrics = mn.metrics.Load
	if cfg.Incremental {
		// This node clears a continuous order book kept in lockstep with
		// its chain replica: unmatched orders carry across blocks.
		mn.miner.Book = book.New(cfg)
	}
	n.Handle(msgBid, mn.onBid)
	n.Handle(msgReveals, mn.onReveals)
	n.Handle(msgBlock, mn.onBlock)
	n.Handle(msgVote, mn.onVote)
	n.Handle(msgSyncReq, mn.onSyncReq)
	n.Handle(msgChain, mn.onChain)
	n.wg.Add(1)
	go mn.resyncLoop()
	return mn, nil
}

// resyncAfter is how long a node appends nothing before it asks for news.
const resyncAfter = 2 * time.Second

// resyncLoop re-announces this replica's height whenever resyncAfter
// passed without an append: a dropped block frame is otherwise recovered
// only when a LATER block fails linkage — never, if it was the last.
// Peers answer only when ahead; while blocks flow the loop is silent.
func (mn *MarketNode) resyncLoop() {
	defer mn.net.wg.Done()
	t := time.NewTicker(resyncAfter)
	defer t.Stop()
	for seen := 0; ; {
		select {
		case <-mn.net.stop:
			return
		case <-t.C:
		}
		if n := mn.chain.Len(); n != seen {
			seen = n
		} else {
			mn.broadcastJSON(msgSyncReq, syncRequest{From: mn.Name(), Height: int64(seen)})
		}
	}
}

// LoadChain makes path the node's chain file. A replica saved there is
// replayed first, every block through the door a peer's block takes; a
// missing file is an empty chain, and the error of a tampered or
// unlinkable one names the height (the file is then left alone). From
// then on the node rewrites the file atomically (ledger.Chain.SaveFile)
// whenever a block it produced or accepted grew the replica, and once
// more as it closes. Call it at most once, before Close.
func (mn *MarketNode) LoadChain(path string) error {
	if _, err := ledger.LoadFile(path, mn.appendVerified); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	mn.net.wg.Add(1)
	go func() { // the file's one writer, so no gossip reader waits on the disk
		defer mn.net.wg.Done()
		for saved, closing := mn.chain.Len(), false; !closing; {
			select {
			case <-mn.saveSig:
			case <-mn.net.stop:
				closing = true
			}
			if n := mn.chain.Len(); n != saved {
				if err := mn.chain.SaveFile(path); err != nil {
					mn.net.log("p2p: %s: save chain: %v", mn.Name(), err)
				} else {
					saved = n
				}
			}
		}
	}()
	return nil
}

// Addr returns the node's listen address.
func (mn *MarketNode) Addr() string { return mn.net.Addr() }

// Name returns the node's name.
func (mn *MarketNode) Name() string { return mn.net.Name() }

// Chain returns the node's chain replica.
func (mn *MarketNode) Chain() *ledger.Chain { return mn.chain }

// Book returns the node's continuous order book — nil outside
// incremental mode. Metro federation reads carry-out removals from it
// (book.SetTrackRemovals) to forward unfillable requests to neighbor
// exchanges.
func (mn *MarketNode) Book() *book.Book { return mn.miner.Book }

// Connect joins a peer's gossip.
func (mn *MarketNode) Connect(addr string) error { return mn.net.Connect(addr) }

// SetFaults installs a transport fault plan on the underlying node.
func (mn *MarketNode) SetFaults(f FaultPlan) { mn.net.SetFaults(f) }

// SetLimits installs transport resource limits on the underlying node.
func (mn *MarketNode) SetLimits(l Limits) { mn.net.SetLimits(l) }

// SetMempoolLimit caps the number of pending sealed bids (0 = unlimited).
// Bids arriving while the pool is full are refused — and counted in
// NetMetrics.PoolDropped — rather than growing memory without bound; a
// well-behaved client observes its bid missing from the next block and
// resubmits.
func (mn *MarketNode) SetMempoolLimit(n int) { mn.pool.SetLimit(n) }

// SetObs installs the round metrics bundle (nil removes it).
func (mn *MarketNode) SetObs(m *obs.MinerMetrics) { mn.metrics.Store(m) }

// SetNetObs installs the transport metrics bundle on the underlying node.
func (mn *MarketNode) SetNetObs(m *obs.NetMetrics) { mn.net.SetObs(m) }

// SetTracer installs the round tracer (nil removes it). Produced rounds
// emit one JSONL timeline each.
func (mn *MarketNode) SetTracer(t *obs.Tracer) { mn.tracer.Store(t) }

// SetLogf routes the underlying node's diagnostics.
func (mn *MarketNode) SetLogf(logf func(format string, args ...any)) { mn.net.SetLogf(logf) }

// Close shuts the node down.
func (mn *MarketNode) Close() error { return mn.net.Close() }

// SubmitBid accepts a sealed bid locally and gossips it.
func (mn *MarketNode) SubmitBid(b *sealed.Bid) error {
	if err := mn.admit(b); err != nil {
		return err
	}
	payload, _ := sealed.AppendBid(nil, b) // admitted, so ed25519-sized
	return mn.net.Broadcast(msgBid, payload)
}

func (mn *MarketNode) onBid(msg Message) {
	if b, err := sealed.DecodeBid(msg.Payload); err == nil {
		_ = mn.admit(b) // a refused gossip bid is just not pooled
	}
}

// broadcastBlock gossips a block — or, without its body, its preamble.
func (mn *MarketNode) broadcastBlock(msgType string, b *ledger.Block) error {
	payload, err := ledger.AppendBlock(nil, b)
	if err == nil {
		err = mn.net.Broadcast(msgType, payload)
	}
	return err
}

// broadcastJSON gossips a vote or a sync request.
func (mn *MarketNode) broadcastJSON(msgType string, v any) {
	data, _ := json.Marshal(v) // neither can fail to marshal
	_ = mn.net.Broadcast(msgType, data)
}

// admit offers a bid to the node's door (miner.Pool.Admit: nil,
// miner.ErrBadBid or miner.ErrPoolFull), counting a full pool's refusal.
func (mn *MarketNode) admit(b *sealed.Bid) error {
	err := mn.pool.Admit(b)
	if errors.Is(err, miner.ErrPoolFull) {
		if m := mn.net.metrics.Load(); m != nil {
			m.PoolDropped.Inc()
		}
	}
	return err
}

// MempoolSize reports the number of pending sealed bids.
func (mn *MarketNode) MempoolSize() int { return mn.pool.Len() }

// PoolLimit returns the configured mempool cap (0 = unlimited).
func (mn *MarketNode) PoolLimit() int { return mn.pool.Limit() }

// onReveals ingests a reveal frame — every reveal a participant owes for
// one preamble in a single message. A reveal is kept only while a produce
// stage is collecting, for a digest it still wants, and if it carries the
// key that committed bid's envelope commits to. So the first VALID reveal
// per digest wins, a forged one cannot displace it, and the preamble
// bounds the intake. What a collecting round turns away is counted;
// between rounds reveals are dropped uncounted — not an attack, gossip.
func (mn *MarketNode) onReveals(msg Message) {
	krs, err := sealed.DecodeReveals(msg.Payload)
	if err != nil {
		return
	}
	mn.revealFrames.Add(1)
	mn.revealMu.Lock()
	if mn.revealWant == nil {
		mn.revealMu.Unlock()
		return
	}
	kept, refused := 0, 0
	for _, kr := range krs {
		if bid := mn.revealWant[kr.BidDigest]; bid == nil || kr.Verify(bid) != nil {
			refused++
			continue
		}
		delete(mn.revealWant, kr.BidDigest)
		mn.pendingReveals = append(mn.pendingReveals, kr)
		kept++
	}
	mn.revealMu.Unlock()
	if m := mn.metrics.Load(); m != nil {
		m.RevealsRefused.Add(int64(refused))
	}
	if kept > 0 {
		select {
		case mn.revealSig <- struct{}{}:
		default:
		}
	}
}

// openRevealIntake starts collecting reveals for the given committed
// bids. Called at the top of a produce stage.
func (mn *MarketNode) openRevealIntake(bids []*sealed.Bid, digests [][32]byte) {
	want := make(map[[32]byte]*sealed.Bid, len(bids))
	for i, b := range bids {
		want[digests[i]] = b
	}
	mn.revealMu.Lock()
	mn.revealWant, mn.pendingReveals = want, nil
	mn.revealMu.Unlock()
	select { // clear a stale pulse from a previous round
	case <-mn.revealSig:
	default:
	}
}

// closeRevealIntake ends the collection and returns what it gathered and
// how many committed digests nobody revealed. Closing twice is harmless.
func (mn *MarketNode) closeRevealIntake() (reveals []*sealed.KeyReveal, unrevealed int) {
	mn.revealMu.Lock()
	defer mn.revealMu.Unlock()
	reveals, unrevealed = mn.pendingReveals, len(mn.revealWant)
	mn.revealWant, mn.pendingReveals = nil, nil
	return reveals, unrevealed
}

// unrevealed reports how many committed digests the open round still wants.
func (mn *MarketNode) unrevealed() int {
	mn.revealMu.Lock()
	defer mn.revealMu.Unlock()
	return len(mn.revealWant)
}

// RevealFrames reports how many reveal transport frames this node has
// received.
func (mn *MarketNode) RevealFrames() int64 { return mn.revealFrames.Load() }

// onBlock verifies a block produced elsewhere, appends it to the local
// replica, and votes. A linkage failure on a block from the future means
// this replica is behind (e.g. it crash-restarted and missed rounds), so
// it asks its peers for the gap before it can vote.
func (mn *MarketNode) onBlock(msg Message) {
	b, err := ledger.DecodeBlock(msg.Payload)
	if err != nil {
		return
	}
	m := mn.metrics.Load()
	verifyStart := obsNow(m)
	v := vote{Voter: mn.Name(), Height: b.Preamble.Height, OK: true}
	if err := mn.appendVerified(b); err != nil {
		v.OK = false
		v.Err = err.Error()
		if errors.Is(err, ledger.ErrBadLinkage) && b.Preamble.Height > int64(mn.chain.Len()) {
			mn.broadcastJSON(msgSyncReq, syncRequest{From: mn.Name(), Height: int64(mn.chain.Len())})
		}
	}
	if m != nil {
		m.VerifySeconds.Observe(time.Since(verifyStart).Seconds())
	}
	mn.broadcastJSON(msgVote, v)
}

// onSyncReq answers a lagging peer with the blocks it is missing.
func (mn *MarketNode) onSyncReq(msg Message) {
	var req syncRequest
	if err := json.Unmarshal(msg.Payload, &req); err != nil || req.From == mn.Name() || len(req.From) > 255 {
		return
	}
	n := int64(mn.chain.Len())
	if n <= req.Height || req.Height < 0 {
		return
	}
	payload := append([]byte{byte(len(req.From))}, req.From...)
	for h := req.Height; h < n; h++ {
		var err error
		if payload, err = ledger.AppendBlock(payload, mn.chain.BlockAt(int(h))); err != nil {
			return
		}
	}
	_ = mn.net.Broadcast(msgChain, payload)
}

// onChain applies catch-up blocks addressed to this node, verifying each
// one before appending, and votes OK for every height it accepts — so a
// producer still waiting on quorum hears from a replica that synced late.
func (mn *MarketNode) onChain(msg Message) {
	to, rest, err := cutString(msg.Payload)
	if err != nil || to != mn.Name() {
		return
	}
	for len(rest) > 0 {
		var b *ledger.Block
		if b, rest, err = ledger.ReadBlock(rest); err != nil {
			return
		}
		if mn.appendVerified(b) == nil { // not held already, and verified
			mn.broadcastJSON(msgVote, vote{Voter: mn.Name(), Height: b.Preamble.Height, OK: true})
		}
	}
}

// appendVerified lets a block produced elsewhere into the node, fully
// verified (miner.Accept), and retires its bids from the pool.
func (mn *MarketNode) appendVerified(b *ledger.Block) error {
	if err := mn.miner.Accept(mn.chain, b); err != nil {
		return err
	}
	mn.committed(b.Bids, nil)
	return nil
}

// committed follows every append, produced or accepted: the block's bids
// leave the pool, and the chain file's writer hears the replica grew.
func (mn *MarketNode) committed(bids []*sealed.Bid, digests [][32]byte) {
	mn.pool.Committed(bids, digests)
	select {
	case mn.saveSig <- struct{}{}:
	default:
	}
}

func (mn *MarketNode) onVote(msg Message) {
	var v vote
	if err := json.Unmarshal(msg.Payload, &v); err != nil {
		return
	}
	select {
	case mn.voteCh <- v:
	default:
	}
}

// RoundSummary reports a produced block's fate.
type RoundSummary struct {
	Block      *ledger.Block
	Outcome    *auction.Outcome
	OKVotes    int
	BadVotes   int
	Unrevealed int
	// RevealAttempts counts preamble broadcasts: 1 for a round where the
	// first reveal window sufficed, more when retries were needed.
	RevealAttempts int
}

// RoundConfig parameterizes one produced round.
type RoundConfig struct {
	// Quorum is the number of OK verifier votes to wait for.
	Quorum int
	// RevealWindow is the first reveal-collection deadline.
	RevealWindow time.Duration
	// RevealRetries is how many times the preamble is re-broadcast when
	// reveals are still missing at the deadline. Participants answer
	// re-broadcasts idempotently, so a lost reveal gets another chance;
	// bids still unrevealed after the last window are excluded from the
	// allocation (DecryptOrders counts them as Unrevealed).
	RevealRetries int
}

// revealBackoff multiplies the reveal window on each retry.
const revealBackoff = 2

// ProduceBlockOpts runs one round as the producing miner, and is the
// node's one round driver: drain the mempool, mine the preamble,
// broadcast it, collect key reveals until every committed bid is revealed
// or the reveal window lapses (retrying with exponential backoff per
// cfg), compute and broadcast the block, then collect verifier votes
// until cfg.Quorum OK votes arrive or ctx expires. The producer appends
// to its own replica before broadcasting. It holds the one head check:
// if a rival's block landed while the round collected reveals, the
// preamble no longer links to the head, so the round is flushed and
// redone on the real head, over its bids but those the rival's block
// committed; flushes are counted in the miner metrics bundle. A rival
// landing later still fails the self-append (abortRound).
func (mn *MarketNode) ProduceBlockOpts(ctx context.Context, cfg RoundConfig) (*RoundSummary, error) {
	bids := mn.pool.Drain()
	if len(bids) == 0 {
		return nil, miner.ErrEmptyMempool
	}
	m := mn.metrics.Load()
	if m != nil {
		m.Rounds.Inc()
	}
	prevHash, height := mn.nextParent()
	roundStart, tr := obsNow(m), mn.tracer.Load().StartRound(height)
	defer tr.End()

	pr, err := mn.produceStage(ctx, cfg, prevHash, height, bids, tr)
	if realPrev, realHeight := mn.nextParent(); err == nil && realPrev != prevHash {
		// The drained bids go back first, so those the pool saw committed
		// meanwhile leave like any committed bid, and the redo drains
		// what is left.
		if m != nil {
			m.PipelineFlushes.Inc()
		}
		tr.Event("pipeline_flushed", map[string]any{"speculated_height": height, "height": realHeight})
		mn.pool.Return(bids)
		if bids = mn.pool.Drain(); len(bids) == 0 {
			return nil, miner.ErrEmptyMempool
		}
		pr, err = mn.produceStage(ctx, cfg, realPrev, realHeight, bids, tr)
	}
	if err != nil {
		mn.abortRound(bids, err)
		return nil, err
	}
	sum, err := mn.commitStage(ctx, cfg, pr, tr)
	if m != nil && err == nil {
		m.RoundSeconds.Observe(time.Since(roundStart).Seconds())
	}
	return sum, err
}

// nextParent returns what the next block on this replica links to: the
// head's preamble hash and the height after it.
func (mn *MarketNode) nextParent() (prevHash [32]byte, height int64) {
	return mn.chain.HeadHash(), int64(mn.chain.Len())
}

// abortRound ends a round that died before its block was appended (timed
// out mid-reveal, mining aborted, the self-append lost the race for its
// height, node closing). Nothing was appended or broadcast, so the bids
// go back for the next round — but for those a rival's block committed
// meanwhile; a closing node has no next round and discards them.
func (mn *MarketNode) abortRound(bids []*sealed.Bid, err error) {
	if errors.Is(err, ErrClosed) {
		mn.pool.Discard(bids)
	} else {
		mn.pool.Return(bids)
	}
}

// producedRound is the output of the production stage — everything the
// commit stage needs to finish the round.
type producedRound struct {
	block      *ledger.Block
	digests    [][32]byte // of block.Bids, derived once per preamble
	reveals    []*sealed.KeyReveal
	unrevealed int
	attempts   int
}

// produceStage runs the round's bidding phase against an explicit
// parent: assemble and mine the preamble, broadcast it, and collect key
// reveals with the retrying window. Reveal waits abort on node shutdown
// as well as ctx — a closing node must not sit out a multi-second reveal
// window.
func (mn *MarketNode) produceStage(ctx context.Context, cfg RoundConfig, prevHash [32]byte, height int64, bids []*sealed.Bid, tr *obs.RoundTrace) (*producedRound, error) {
	m := mn.metrics.Load()
	block := mn.miner.AssembleBlockAt(prevHash, height, bids, time.Now().Unix())
	if err := mn.miner.Mine(ctx, block, 0); err != nil {
		return nil, err
	}
	tr.Event("preamble_sealed", map[string]any{
		"producer": mn.Name(), "height": block.Preamble.Height, "bids": len(block.Bids),
	})

	// Collect the reveals of the committed bids — the intake keeps one per
	// digest, checked against its bid, and drops whatever is gossiped
	// outside a round — re-broadcasting the preamble with a growing window
	// while any are missing and retries remain.
	digests := sealed.Digests(block.Bids)
	mn.openRevealIntake(block.Bids, digests)
	defer mn.closeRevealIntake() // for the early returns
	window := cfg.RevealWindow
	revealStart := obsNow(m)
	attempts := 0
	for {
		attempts++
		if err := mn.broadcastBlock(msgPreamble, block); err != nil {
			return nil, fmt.Errorf("p2p: broadcast preamble: %w", err)
		}
		timer := time.NewTimer(window)
	collect:
		for mn.unrevealed() > 0 {
			select {
			case <-mn.revealSig:
			case <-timer.C:
				break collect
			case <-mn.net.stop:
				timer.Stop()
				return nil, ErrClosed
			case <-ctx.Done():
				timer.Stop()
				return nil, ctx.Err()
			}
		}
		timer.Stop()
		if mn.unrevealed() == 0 || attempts > cfg.RevealRetries {
			break
		}
		window *= revealBackoff
	}
	reveals, unrevealed := mn.closeRevealIntake()
	if m != nil {
		m.RevealSeconds.Observe(time.Since(revealStart).Seconds())
		m.RevealAttempts.Add(int64(attempts))
		m.RevealRetries.Add(int64(attempts - 1))
		m.UnrevealedBids.Add(int64(unrevealed))
	}
	tr.Event("reveals_collected", map[string]any{
		"attempts": attempts, "retries": attempts - 1,
		"revealed": len(reveals), "unrevealed": unrevealed,
	})
	return &producedRound{
		block: block, digests: digests, reveals: reveals,
		unrevealed: unrevealed, attempts: attempts,
	}, nil
}

// commitStage runs the round's execution phase: execute the block into
// this node (miner.Produce), broadcast it, and wait for the verifier
// quorum. Vote waits abort on node shutdown as well as ctx.
func (mn *MarketNode) commitStage(ctx context.Context, cfg RoundConfig, pr *producedRound, tr *obs.RoundTrace) (*RoundSummary, error) {
	m := mn.metrics.Load()
	block := pr.block
	computeStart := obsNow(m)
	outcome, err := mn.miner.Produce(mn.chain, block, pr.reveals)
	if err != nil {
		mn.abortRound(block.Bids, err)
		return nil, fmt.Errorf("p2p: self-append: %w", err)
	}
	mn.committed(block.Bids, pr.digests)
	if m != nil {
		m.ComputeSeconds.Observe(time.Since(computeStart).Seconds())
	}
	tr.Event("allocation_computed", map[string]any{"matches": len(outcome.Matches)})
	if err := mn.broadcastBlock(msgBlock, block); err != nil {
		return nil, fmt.Errorf("p2p: broadcast block: %w", err)
	}

	summary := &RoundSummary{
		Block:          block,
		Outcome:        outcome,
		Unrevealed:     pr.unrevealed,
		RevealAttempts: pr.attempts,
	}
	// Voters, once per verdict: a duplicate is no second voter; bad-then-OK (caught up) counts.
	voters := map[bool]map[string]bool{false: {}, true: {}}
	for summary.OKVotes < cfg.Quorum {
		var gaveUp error
		select {
		case v := <-mn.voteCh:
			if v.Height == block.Preamble.Height { // not another round's vote
				voters[v.OK][v.Voter] = true
				summary.OKVotes, summary.BadVotes = len(voters[true]), len(voters[false])
			}
			continue
		case <-mn.net.stop:
			gaveUp = ErrClosed
		case <-ctx.Done():
			gaveUp = ctx.Err()
		}
		tr.Event("denied", map[string]any{
			"ok_votes": summary.OKVotes, "bad_votes": summary.BadVotes, "quorum": cfg.Quorum,
		})
		return summary, fmt.Errorf("p2p: quorum not reached: %d/%d ok, %d bad: %w",
			summary.OKVotes, cfg.Quorum, summary.BadVotes, gaveUp)
	}
	tr.Event("verified", map[string]any{
		"ok_votes": summary.OKVotes, "bad_votes": summary.BadVotes,
	})
	if m != nil {
		m.BlocksAccepted.Inc()
	}
	return summary, nil
}

// obsNow reads the wall clock only when metrics are enabled.
func obsNow(m *obs.MinerMetrics) (t time.Time) {
	if m != nil {
		t = time.Now()
	}
	return
}
