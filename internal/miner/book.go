package miner

import (
	"bytes"
	"fmt"

	"decloud/internal/auction"
	"decloud/internal/ledger"
	"decloud/internal/sealed"
)

// How a block enters a miner: executed once, then absorbed. With
// Miner.Book set the miner is incremental: orders join a long-lived book
// (internal/book), unmatched ones carry across blocks, and each clear
// re-scores only what the block dirtied — byte-identical to the
// from-scratch mechanism over the same live set (book/booktest).
//
// The invariant is book == chain. A node keeps it by letting blocks in
// through Produce (its own) and Accept (anyone else's) only: both hold
// bookMu across catch-up → chain.Append → absorb, so no other block lands
// between a preview and its apply. Lock order: Miner.bookMu →
// ledger.Chain.mu → book.Book.mu.

// absorb advances the book by block b, now on the chain, from the
// execution this miner ran for it (nil: it sat the block out — a fresh
// replica, a restart, a crashed or unsampled verifier — and executes it
// now): the Apply reuses the preview's memo, and what it commits must be
// the allocation the block carries — else the book has diverged from
// consensus. A no-op from scratch.
func (m *Miner) absorb(b *ledger.Block, ex *execution) error {
	if m.Book == nil {
		return nil
	}
	var err error
	if ex == nil {
		if ex, err = m.execute(b, b.Body.Reveals); err != nil {
			return err
		}
	}
	alloc := ex.alloc
	if out := m.Book.Apply(ex.dec.Requests, ex.dec.Offers, b.Evidence()); out != ex.outcome {
		// The book moved since the preview: the Apply cleared again.
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

// catchUp absorbs, in height order, every chain block the book has not.
// bookMu held.
func (m *Miner) catchUp(chain *ledger.Chain) error {
	if m.Book == nil {
		return nil
	}
	for h := m.Book.Blocks(); h < chain.Len(); h++ {
		if err := m.absorb(chain.BlockAt(h), nil); err != nil {
			return err
		}
	}
	return nil
}

// SyncBook replays the chain blocks the miner's book has not absorbed.
func (m *Miner) SyncBook(chain *ledger.Chain) error {
	m.bookMu.Lock()
	defer m.bookMu.Unlock()
	return m.catchUp(chain)
}

// Produce is how a node's own block enters it: execute it with the
// collected reveals, attach the body, append, absorb. A block that no
// longer links fails with ledger.ErrBadLinkage; chain and book stay put.
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

// Accept is how anyone else's block enters a node: appended under full
// verification (VerifyBlock), whose execution the book absorbs.
func (m *Miner) Accept(chain *ledger.Chain, b *ledger.Block) error {
	m.bookMu.Lock()
	defer m.bookMu.Unlock()
	if err := m.catchUp(chain); err != nil {
		return err
	}
	var ex *execution
	if err := chain.Append(b, func(b *ledger.Block) (err error) {
		ex, err = m.verify(b)
		return err
	}); err != nil {
		return err
	}
	return m.absorb(b, ex)
}
