package miner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"decloud/internal/auction"
	"decloud/internal/audit"
	"decloud/internal/bidding"
	"decloud/internal/book"
	"decloud/internal/ledger"
	"decloud/internal/obs"
	"decloud/internal/par"
	"decloud/internal/sealed"
)

// Errors surfaced by miner operations.
var (
	ErrAllocationMismatch = errors.New("miner: recomputed allocation differs from block body")
	ErrMiningFailed       = errors.New("miner: proof-of-work search exhausted")
)

// Miner executes the protocol's mining-side duties: assembling and
// mining preambles, decrypting revealed bids, computing allocations, and
// independently verifying other miners' blocks.
type Miner struct {
	// Name identifies the miner (diagnostics only).
	Name string
	// Difficulty is the PoW difficulty in leading zero bits.
	Difficulty int
	// AuctionCfg configures the allocation mechanism. The Evidence field
	// is overwritten per block with the preamble hash.
	AuctionCfg auction.Config
	// Book, when non-nil, switches the miner to incremental mode
	// (AuctionCfg.Incremental): orders live in a continuous book,
	// unmatched ones carry across blocks, and each block's body is the
	// book's incremental clear rather than a from-scratch run over the
	// block's bids alone. Produce and Accept keep it equal to the chain.
	Book *book.Book
	// Admitted, when non-nil, is the owning node's set of bids whose
	// signature it checked at its own door: executing a block skips the
	// check for exactly those and checks every bid first met inside the
	// block. A bare Miner has no set and checks everything. Metrics, when
	// non-nil, returns where both are counted (observational only).
	Admitted *sealed.Verified
	Metrics  func() *obs.MinerMetrics

	// bookMu is held across every catch-up → append → absorb (book.go),
	// so the book moves only in chain order.
	bookMu sync.Mutex
}

// AssembleBlockAt fixes the sealed-bid order (sorted by digest — a
// canonical order no miner can game) and builds the unmined preamble
// against an explicit parent. The parent hash depends only on the
// parent's preamble, so the epoch pipeline can assemble block n+1
// against block n as soon as n's production finishes, while n's body is
// still being verified.
func (m *Miner) AssembleBlockAt(prevHash [32]byte, height int64, bids []*sealed.Bid, timestamp int64) *ledger.Block {
	ordered := sealed.SortedByDigest(bids)
	return &ledger.Block{
		Preamble: ledger.Preamble{
			Height:     height,
			PrevHash:   prevHash,
			Timestamp:  timestamp,
			Difficulty: m.Difficulty,
			BidsHash:   ledger.HashBids(ordered),
		},
		Bids: ordered,
	}
}

// Mine searches the preamble nonce space, honoring ctx cancellation (the
// network cancels losers once one miner wins the race).
func (m *Miner) Mine(ctx context.Context, b *ledger.Block, startNonce uint64) error {
	b.Preamble.Nonce = startNonce
	if !ledger.Mine(ctx, &b.Preamble, 0) {
		return ErrMiningFailed
	}
	return nil
}

// DecryptResult is the outcome of opening a block's sealed bids with the
// revealed keys.
type DecryptResult struct {
	Requests []*bidding.Request
	Offers   []*bidding.Offer
	// Unrevealed counts bids whose temporary key never arrived — they are
	// excluded from the round (their senders can resubmit).
	Unrevealed int
	// Rejected counts bids dropped for integrity reasons: bad signatures,
	// reveals of a key the envelope does not commit to, undecryptable
	// envelopes, malformed orders, or orders whose owner is not the signer.
	Rejected int
	// SigSkipped counts bids whose signature was not re-checked because
	// the executing node had checked it at its own door (Miner.Admitted);
	// the other len(bids) − SigSkipped were checked here.
	SigSkipped int
}

// DecryptOrders opens the block's bids using the key reveals. Every rule
// the paper's verification step implies is enforced here:
//
//   - the bid must be signed by its sender over the envelope;
//   - the reveal must name the bid and carry the one key the envelope
//     commits to (unsigned: relaying it reveals the sender's own order);
//   - the envelope must authenticate under the revealed key;
//   - the decoded order's owner must equal the sender's fingerprint, so
//     nobody can submit orders on someone else's behalf.
func DecryptOrders(bids []*sealed.Bid, reveals []*sealed.KeyReveal) DecryptResult {
	return decryptOrders(bids, reveals, nil, par.Default())
}

// opened is what one bid decrypted to. Neither an order nor unrevealed
// means rejected.
type opened struct {
	req        *bidding.Request
	off        *bidding.Offer
	unrevealed bool
	sigSkipped bool
}

// decryptOrders is DecryptOrders over a worker pool, skipping the
// signature check of exactly the bids in admitted (nil: none). Each bid
// fills only its own slot and the slots are merged in input order, so
// the result does not depend on workers.
func decryptOrders(bids []*sealed.Bid, reveals []*sealed.KeyReveal, admitted *sealed.Verified, workers int) DecryptResult {
	byDigest := make(map[[32]byte]*sealed.KeyReveal, len(reveals))
	for _, kr := range reveals {
		byDigest[kr.BidDigest] = kr
	}
	slots := make([]opened, len(bids))
	par.ForEach(workers, len(bids), func(i int) {
		slots[i] = openBid(bids[i], byDigest, admitted)
	})
	var res DecryptResult
	for _, o := range slots {
		if o.sigSkipped {
			res.SigSkipped++
		}
		switch {
		case o.req != nil:
			res.Requests = append(res.Requests, o.req)
		case o.off != nil:
			res.Offers = append(res.Offers, o.off)
		case o.unrevealed:
			res.Unrevealed++
		default:
			res.Rejected++
		}
	}
	return res
}

func openBid(b *sealed.Bid, byDigest map[[32]byte]*sealed.KeyReveal, admitted *sealed.Verified) (o opened) {
	if o.sigSkipped = admitted.Has(b); !o.sigSkipped && !b.VerifySignature() {
		return o
	}
	kr, ok := byDigest[b.Digest()]
	if !ok {
		o.unrevealed = true
		return o
	}
	if kr.Verify(b) != nil {
		return o
	}
	plain, err := b.Envelope.Open(kr.Key)
	if err != nil {
		return o
	}
	req, off, err := bidding.DecodeOrder(plain)
	if err != nil {
		return o
	}
	switch {
	case req != nil && req.Client == b.SenderID():
		o.req = req
	case off != nil && off.Provider == b.SenderID():
		o.off = off
	}
	return o
}

// execution is one deterministic run of a block: what its bids decrypted
// to, the market the clear ran over, the outcome, and the outcome's
// canonical allocation bytes.
type execution struct {
	dec     DecryptResult
	outcome *auction.Outcome
	// reqs/offs are the market the clear ran over: the block's own
	// orders from scratch, the union of carried and newly revealed
	// orders over a book preview (a carried match references an order
	// that is not among this block's bids).
	reqs  []*bidding.Request
	offs  []*bidding.Offer
	alloc []byte
}

// execute is the one block executor — the function the producer computes
// and every verifier re-executes (Section III-B): decrypt the block's
// bids with the reveals, clear them under the block's PoW evidence, and
// encode the allocation. From scratch the clear is auction.Run over the
// block's orders alone. With a book it is a speculative Book.Preview over
// carried + new orders; absorb advances the book once the block is on chain.
func (m *Miner) execute(b *ledger.Block, reveals []*sealed.KeyReveal) (*execution, error) {
	ex := &execution{dec: decryptOrders(b.Bids, reveals, m.Admitted, m.AuctionCfg.Workers)}
	if m.Metrics != nil {
		if mm := m.Metrics(); mm != nil {
			mm.BidSigSkipped.Add(int64(ex.dec.SigSkipped))
			mm.BidSigChecked.Add(int64(len(b.Bids) - ex.dec.SigSkipped))
		}
	}
	if m.Book == nil {
		cfg := m.AuctionCfg
		cfg.Evidence = b.Evidence()
		ex.reqs, ex.offs = ex.dec.Requests, ex.dec.Offers
		ex.outcome = auction.Run(ex.reqs, ex.offs, cfg)
	} else {
		ex.outcome, ex.reqs, ex.offs = m.Book.Preview(ex.dec.Requests, ex.dec.Offers, b.Evidence())
	}
	var err error
	ex.alloc, err = ledger.EncodeAllocation(ex.outcome)
	return ex, err
}

// verify is VerifyBlock on a block that passed Validate (chain.Append runs
// it before the callback), handing back the execution it ran.
func (m *Miner) verify(b *ledger.Block) (*execution, error) {
	ex, err := m.execute(b, b.Body.Reveals)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(ex.alloc, b.Body.Allocation) {
		return nil, fmt.Errorf("%w (miner %s)", ErrAllocationMismatch, m.Name)
	}
	if violations := audit.Outcome(ex.reqs, ex.offs, ex.outcome); len(violations) > 0 {
		return nil, fmt.Errorf("miner %s: allocation violates the market model: %v", m.Name, violations[0])
	}
	return ex, nil
}

// ComputeBody executes the block and attaches the resulting body. It
// returns the outcome so the caller can propose agreements. The book of
// an incremental miner is not advanced (see Produce).
func (m *Miner) ComputeBody(b *ledger.Block, reveals []*sealed.KeyReveal) (*auction.Outcome, error) {
	ex, err := m.execute(b, reveals)
	if err != nil {
		return nil, err
	}
	b.Body = ledger.NewBody(reveals, ex.alloc)
	return ex.outcome, nil
}

// VerifyBlock is the independent re-execution every other miner performs
// before accepting a block (Section III-B): execute the same bids with
// the body's reveals — against the verifier's own book replica in
// incremental mode — and compare allocations byte for byte. It also
// re-checks the block's structural validity and audits the recomputed
// outcome against the market-model constraints over the market the
// clear ran over (defense in depth: a bug that corrupted every replica
// identically would still be caught here).
func (m *Miner) VerifyBlock(b *ledger.Block) error {
	if err := b.Validate(); err != nil {
		return err
	}
	_, err := m.verify(b)
	return err
}
