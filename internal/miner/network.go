package miner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"decloud/internal/auction"
	"decloud/internal/book"
	"decloud/internal/contract"
	"decloud/internal/ledger"
	"decloud/internal/obs"
	"decloud/internal/par"
	"decloud/internal/sealed"
)

// Errors surfaced by the network.
var (
	ErrNoMiners     = errors.New("miner: network has no miners")
	ErrEmptyMempool = errors.New("miner: no sealed bids to include")
	ErrBadBid       = errors.New("miner: sealed bid failed signature verification")
	ErrPoolFull     = errors.New("miner: mempool full")
	ErrNoQuorum     = errors.New("miner: verifier quorum rejected the block")
	ErrAllCrashed   = errors.New("miner: every miner is crashed this round")
)

// DefaultRevealRetries is how many extra delivery attempts the reveal
// phase makes for missing key reveals before the round deterministically
// excludes the still-unrevealed bids and moves on. The in-process
// transport retries at once; the TCP layer (p2p.MarketNode) backs off
// between attempts.
const DefaultRevealRetries = 3

// Network is the in-process miner overlay: a shared mempool of sealed
// bids, a set of racing miners, the canonical chain, and the contract
// registry where accepted allocations become agreements.
type Network struct {
	miners   []*Miner
	chain    *ledger.Chain
	registry *contract.Registry
	// pool is the one door of the process: the miners share the mempool
	// and therefore its trust set. A round that fails discards its bids.
	pool *Pool

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // pipelined commits in flight

	// Consensus selects the block producer: ProofOfWork (default) races
	// on the puzzle; ProofOfStake elects a stake-weighted leader.
	Consensus Consensus
	// Stakes weights proof-of-stake leader election by miner name
	// (missing or non-positive entries count as weight 1).
	Stakes map[string]float64

	// Policy selects block verification: VerifyAll (default) or
	// VerifySampled with SampleProb (TrueBit-style challengers).
	Policy     VerifyPolicy
	SampleProb float64
	// Challenges accumulates disputes raised by sampled verifiers.
	Challenges []Challenge
	// Slashed counts rejected blocks per producing miner — the penalty
	// hook a staking deployment would burn deposits through. Under every
	// policy a producer whose block the verifiers reject is slashed once
	// per rejected block, and the round re-elects without it.
	Slashed map[string]int

	// Balances accumulates each miner's earned emission: DefaultBlockReward
	// per accepted block produced.
	Balances map[string]float64

	// Faults, when set, injects deterministic transport faults into the
	// round (a *chaos.Plan does): lost key reveals (retried
	// DefaultRevealRetries times, then excluded — identically on every
	// honest miner, because the verdicts depend only on the plan seed and
	// the bid digest) and crash-restart windows that take miners out of
	// production and verification for the rounds they cover.
	Faults interface {
		Crashed(t int64, node string) bool
		RevealLost(round int64, attempt int, producer, sender string, digest [32]byte) bool
	}

	// TamperBody, when set, mutates the named producer's body before it
	// is broadcast — a test hook simulating a Byzantine miner.
	TamperBody func(producer string, b *ledger.Body)

	// Obs, when set, records round observability (reveal retries,
	// exclusions, Byzantine rejections, per-phase wall times). Tracer,
	// when set, emits one structured timeline per round. Both are purely
	// observational: nothing in the round ever reads them back, so block
	// outcomes stay byte-identical with observability on or off.
	Obs    *obs.MinerMetrics
	Tracer *obs.Tracer

	clock int64
}

// NewNetwork creates a network of n miners at the given PoW difficulty.
// Every miner shares the network's contract registry as its reputation
// source, so provider-side reputation thresholds (Section III-B) are
// enforced consistently: reputation is ledger state, identical on every
// verifying node.
func NewNetwork(n int, difficulty int, cfg auction.Config) *Network {
	net := &Network{
		chain:    ledger.NewChain(),
		registry: contract.NewRegistry(nil),
		Slashed:  make(map[string]int),
		Balances: make(map[string]float64),
	}
	metrics := func() *obs.MinerMetrics { return net.Obs }
	net.pool = NewPool(metrics)
	cfg.Reputation = net.registry.Reputation()
	for i := 0; i < n; i++ {
		m := &Miner{
			Name:       fmt.Sprintf("miner-%02d", i),
			Difficulty: difficulty,
			AuctionCfg: cfg,
			Admitted:   net.pool.Verified(),
			Metrics:    metrics,
		}
		if cfg.Incremental {
			// Each miner keeps its own book replica — replicas are
			// independent state machines driven by the same chain, which
			// is exactly the property incremental verification tests.
			m.Book = book.New(cfg)
		}
		net.miners = append(net.miners, m)
	}
	return net
}

// Chain exposes the canonical chain.
func (n *Network) Chain() *ledger.Chain { return n.chain }

// Book returns the first miner's order-book replica, or nil outside
// incremental mode. All replicas are driven by the same chain and are
// byte-identical after every round, so one replica is a faithful view
// of the network's carried market — the federation layer reads it to
// harvest carry-out removals for cross-metro spill.
func (n *Network) Book() *book.Book {
	if len(n.miners) == 0 {
		return nil
	}
	return n.miners[0].Book
}

// Contracts exposes the agreement registry.
func (n *Network) Contracts() *contract.Registry { return n.registry }

// Close shuts the network down: it blocks until every pipelined commit
// in flight has drained. Safe to call more than once.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.wg.Wait()
}

// track registers one unit of in-flight work with the shutdown
// WaitGroup, refusing once Close has begun (an Add racing Wait is
// undefined). The caller must call n.wg.Done() iff track returns true.
func (n *Network) track() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.wg.Add(1)
	return true
}

// SubmitBid gossips a sealed bid into the mempool. Bids with invalid
// signatures are rejected at the door, as any real node would; a bid
// already pending or committed is absorbed.
func (n *Network) SubmitBid(b *sealed.Bid) error { return n.pool.Admit(b) }

// MempoolSize reports the number of pending sealed bids.
func (n *Network) MempoolSize() int { return n.pool.Len() }

// RoundResult summarizes one completed protocol round.
type RoundResult struct {
	Block      *ledger.Block
	Outcome    *auction.Outcome
	Winner     string
	Agreements []contract.AgreementID
	// Unrevealed and RejectedBids count bids dropped during decryption.
	Unrevealed   int
	RejectedBids int
	// ExcludedDigests lists the sealed bids whose key reveals never
	// arrived within the retry budget, in digest order. The list is a
	// pure function of the fault plan and the committed bids, so every
	// honest miner excludes exactly this set.
	ExcludedDigests [][32]byte
	// RevealAttempts is how many delivery attempts the reveal phase used
	// (1 when everything arrived first try).
	RevealAttempts int
	// Offenders lists producers whose blocks were rejected and slashed
	// before the round converged, in re-election order.
	Offenders []string
}

// RunRound executes one full two-phase round (Fig. 2 of the paper):
//
//  1. Bidding phase: the mempool is drained into a block; miners race on
//     proof-of-work; the winner's preamble is broadcast.
//  2. Participants see their bids committed and broadcast key reveals.
//     Reveals lost in transit are re-requested up to
//     DefaultRevealRetries times; bids still unrevealed at the deadline
//     are excluded — the same exclusion on every honest miner — instead
//     of stalling the round.
//  3. Execution phase: the winner decrypts, computes the allocation
//     (seeded by the PoW evidence), and broadcasts the body.
//  4. Every other live miner independently re-executes and must agree
//     before the block is appended; the matches become proposed
//     agreements. A producer whose body fails verification is slashed
//     and barred, and the round re-elects among the remaining miners
//     until an honest block converges (graceful Byzantine degradation).
//
// It is the epoch pipeline at depth 1 (pipeline.go): steps 1–2 are
// produceStage against the chain head, steps 3–4 are commitStage, with
// nothing overlapped. The participants argument lists the endpoints to
// ask for key reveals — in a real deployment this is a broadcast, here
// it is a direct call.
func (n *Network) RunRound(ctx context.Context, participants []*Participant) (*RoundResult, error) {
	if len(n.miners) == 0 {
		return nil, ErrNoMiners
	}
	st, err := n.beginRound(0, participants)
	if err != nil {
		return nil, err
	}
	defer n.endRound(st)
	prevHash, height := n.nextParent()
	if err := n.produceStage(ctx, st, prevHash, height, nil); err != nil {
		return nil, err
	}
	return n.commitStage(ctx, st)
}

// nextParent returns what the next block links to: the chain head's
// preamble hash and the height after it.
func (n *Network) nextParent() (prevHash [32]byte, height int64) {
	if head := n.chain.Head(); head != nil {
		height = head.Preamble.Height + 1
	}
	return n.chain.HeadHash(), height
}

// collectReveals runs the reveal phase with a retry budget: participants
// produce reveals for the committed bids, the fault plan decides which
// deliveries are lost per attempt, and lost reveals are re-requested
// until they arrive or the budget is spent. Bids whose reveals never
// arrive are excluded; the verdicts depend only on (plan seed, round,
// attempt, bid digest), so the excluded set is identical on every honest
// miner regardless of which one produces the block. Returned reveals
// follow the block's canonical bid order, keeping the body bytes
// deterministic.
func (n *Network) collectReveals(block *ledger.Block, participants []*Participant, round int64, producer string) ([]*sealed.KeyReveal, [][32]byte, int) {
	if !block.Preamble.ValidPoW() {
		return nil, nil, 0
	}
	// The preamble is digested once: for every participant, every retry
	// attempt and the final pass.
	ix := sealed.NewIndex(block.Bids)
	produced := make(map[[32]byte]*sealed.KeyReveal, len(block.Bids))
	for _, kr := range RevealAll(participants, ix) {
		produced[kr.BidDigest] = kr
	}

	delivered := make(map[[32]byte]bool, len(produced))
	attempts := 0
	for attempt := 0; attempt <= DefaultRevealRetries; attempt++ {
		attempts++
		missing := false
		for i, b := range block.Bids {
			d := ix.Digests[i]
			if delivered[d] {
				continue
			}
			if _, ok := produced[d]; !ok {
				missing = true // never produced; retries cannot help, but the
				continue       // silent sender may still be partitioned, not gone
			}
			if n.Faults != nil && n.Faults.RevealLost(round, attempt, producer, string(b.SenderID()), d) {
				if n.Obs != nil {
					n.Obs.RevealLosses.Inc()
				}
				missing = true
				continue
			}
			delivered[d] = true
		}
		if !missing {
			break
		}
	}

	var reveals []*sealed.KeyReveal
	var excluded [][32]byte
	for _, d := range ix.Digests { // block bids are digest-sorted: canonical order
		if delivered[d] {
			reveals = append(reveals, produced[d])
		} else {
			excluded = append(excluded, d)
		}
	}
	return reveals, excluded, attempts
}

// obsNow reads the wall clock only when metrics are enabled, so the
// uninstrumented round makes zero time syscalls for observability.
func obsNow(m *obs.MinerMetrics) (t time.Time) {
	if m != nil {
		t = time.Now()
	}
	return
}

func mustDecode(alloc []byte) []ledger.AllocationRecord {
	records, err := ledger.DecodeAllocation(alloc)
	if err != nil {
		// The body was just encoded by this process; failure here is a
		// programming error, not an input error.
		panic(fmt.Sprintf("miner: decode own allocation: %v", err))
	}
	return records
}

// electLeaderAt produces a block under proof-of-stake: the stake-weighted
// leader among the eligible miners assembles it with difficulty 0 (no
// puzzle to solve). The parent is explicit, so the epoch pipeline can
// elect round n+1's leader from block n's preamble hash before n's body
// has committed.
func (n *Network) electLeaderAt(prevHash [32]byte, height int64, eligible []int, bids []*sealed.Bid, timestamp int64) (int, *ledger.Block) {
	names := make([]string, len(eligible))
	for i, idx := range eligible {
		names[i] = n.miners[idx].Name
	}
	idx := eligible[SelectLeader(prevHash, height, names, n.Stakes)]
	block := n.miners[idx].AssembleBlockAt(prevHash, height, bids, timestamp)
	block.Preamble.Difficulty = 0
	return idx, block
}

// verifyByPolicy applies the network's verification policy to a block.
// verifiers lists the live (non-crashed) miners; everyone but the
// producer checks, including miners barred from producing, and leaves
// the execution it ran in exs (by miner index). Slashing is the caller's
// job, so a rejected block costs its producer one slash under any policy.
func (n *Network) verifyByPolicy(b *ledger.Block, producerIdx int, verifiers []int, exs []*execution) error {
	check := func(i int) (err error) {
		exs[i], err = n.miners[i].verify(b)
		return err
	}
	if n.Policy == VerifySampled {
		challenged := false
		for _, i := range verifiers {
			m := n.miners[i]
			if i == producerIdx || !shouldSample(b.Evidence(), m.Name, n.SampleProb) {
				continue
			}
			if err := check(i); err != nil {
				n.Challenges = append(n.Challenges, Challenge{
					Height: b.Preamble.Height, Challenger: m.Name, Err: err.Error(),
				})
				challenged = true
			}
		}
		if !challenged {
			// Nobody sampled a problem: the block stands. With
			// SampleProb 0 this IS the verifier's dilemma — a cheating
			// producer goes unchecked.
			return nil
		}
	}
	// VerifyAll, or a challenge escalating to it: everyone re-executes, on
	// its own book replica and so concurrently; the verdict is the first
	// objection in verifier order.
	errs := make([]error, len(verifiers))
	par.ForEach(par.Default(), len(verifiers), func(k int) {
		if i := verifiers[k]; i != producerIdx {
			errs[k] = check(i)
		}
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("%w (producer %s): %v", ErrNoQuorum, n.miners[producerIdx].Name, err)
		}
	}
	return nil
}

// raceAt runs the PoW competition among the eligible miners against an
// explicit parent (the pipeline mines on a speculated head) and returns
// the winning miner's index and its mined block.
func (n *Network) raceAt(ctx context.Context, prevHash [32]byte, height int64, eligible []int, bids []*sealed.Bid, timestamp int64) (int, *ledger.Block, error) {
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type win struct {
		idx   int
		block *ledger.Block
	}
	results := make(chan win, len(eligible))
	var wg sync.WaitGroup
	for _, idx := range eligible {
		wg.Add(1)
		go func(idx int, m *Miner) {
			defer wg.Done()
			b := m.AssembleBlockAt(prevHash, height, bids, timestamp)
			// Disjoint nonce regions keep the race fair and deterministic
			// enough for tests while still genuinely concurrent.
			start := uint64(idx) << 48
			if err := m.Mine(raceCtx, b, start); err == nil {
				select {
				case results <- win{idx: idx, block: b}:
				default:
				}
			}
		}(idx, n.miners[idx])
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	first, ok := <-results
	if !ok {
		return 0, nil, ErrMiningFailed
	}
	cancel()
	// Drain the channel so no goroutine blocks (buffered, but be tidy).
	for range results {
	}
	return first.idx, first.block, nil
}
