package miner

import (
	"bytes"
	"fmt"

	"decloud/internal/auction"
	"decloud/internal/ledger"
	"decloud/internal/sealed"
)

// This file is how a block enters a miner: executed once, then absorbed.
// With Miner.Book set the miner is incremental: orders join a long-lived
// book (internal/book), unmatched ones carry across blocks, and each
// clear re-scores only what the block's mutations dirtied — byte-identical
// to the from-scratch mechanism over the same live set (book/booktest),
// so incremental and rebuild miners agree on every block body.
//
// The invariant is book == chain. A node keeps it by letting blocks in
// through Produce (its own) and Accept (anyone else's) only: both hold
// bookMu across catch-up → chain.Append → absorb, so no other block lands
// between an execution's preview and its apply. Lock order: Miner.bookMu
// → ledger.Chain.mu → book.Book.mu.

// absorb advances the book by block b, now on the chain, from the
// execution this miner ran for it: the Apply reuses the preview's
// memoized outcome, and what it commits must be the allocation the block
// carries — else the book has diverged from consensus. A no-op from
// scratch.
func (m *Miner) absorb(b *ledger.Block, ex execution) error {
	if m.Book == nil {
		return nil
	}
	alloc := ex.alloc
	if out := m.Book.Apply(ex.dec.Requests, ex.dec.Offers, b.Evidence()); out != ex.outcome {
		var err error // the book moved since the preview: Apply cleared again
		if alloc, err = ledger.EncodeAllocation(out); err != nil {
			return err
		}
	}
	if !bytes.Equal(alloc, b.Body.Allocation) {
		return fmt.Errorf("miner %s: book diverged from chain at height %d: %w", m.Name, b.Preamble.Height, ErrAllocationMismatch)
	}
	// The watermark comes from the block's bid time fields: every replica
	// expires the same set at the same height.
	m.Book.AdvanceClock(ex.dec.Requests, ex.dec.Offers)
	return nil
}

// catchUp executes and absorbs, in height order, every chain block the
// book has not absorbed. bookMu held.
func (m *Miner) catchUp(chain *ledger.Chain) error {
	if m.Book == nil {
		return nil
	}
	for h := m.Book.Blocks(); h < chain.Len(); h++ {
		blk := chain.BlockAt(h)
		if blk == nil || blk.Body == nil {
			return fmt.Errorf("miner %s: sync book: no body at height %d", m.Name, h)
		}
		ex, err := m.execute(blk, blk.Body.Reveals)
		if err != nil {
			return fmt.Errorf("miner %s: sync book at height %d: %w", m.Name, h, err)
		}
		if err := m.absorb(blk, ex); err != nil {
			return err
		}
	}
	return nil
}

// SyncBook replays into the book the chain blocks the miner did not
// execute itself: a fresh replica, a restart, a verifier that sat a block
// out.
func (m *Miner) SyncBook(chain *ledger.Chain) error {
	m.bookMu.Lock()
	defer m.bookMu.Unlock()
	return m.catchUp(chain)
}

// Produce is how a node's own block enters it: execute the block with the
// collected reveals, attach the body, append it to the node's chain and
// absorb the execution. A block that no longer links to the head fails
// with ledger.ErrBadLinkage and moves neither chain nor book.
func (m *Miner) Produce(chain *ledger.Chain, b *ledger.Block, reveals []*sealed.KeyReveal) (*auction.Outcome, error) {
	m.bookMu.Lock()
	defer m.bookMu.Unlock()
	if err := m.catchUp(chain); err != nil {
		return nil, err
	}
	ex, err := m.execute(b, reveals)
	if err != nil {
		return nil, err
	}
	b.Body = ledger.NewBody(reveals, ex.alloc)
	if err := chain.Append(b, nil); err != nil {
		return nil, err
	}
	return ex.outcome, m.absorb(b, ex)
}

// Accept is how anyone else's block enters a node: appended to the node's
// chain under full verification (VerifyBlock), whose execution the book
// absorbs.
func (m *Miner) Accept(chain *ledger.Chain, b *ledger.Block) error {
	m.bookMu.Lock()
	defer m.bookMu.Unlock()
	if err := m.catchUp(chain); err != nil {
		return err
	}
	var ex execution
	if err := chain.Append(b, func(b *ledger.Block) (err error) {
		ex, err = m.verify(b)
		return err
	}); err != nil {
		return err
	}
	return m.absorb(b, ex)
}
