package miner

import (
	"bytes"
	"fmt"

	"decloud/internal/book"
	"decloud/internal/ledger"
)

// This file wires the continuous order book (internal/book) into the
// miner's produce/verify duties. When Miner.Book is non-nil the miner
// runs in incremental mode: instead of clearing each block's bids in
// isolation, orders join a long-lived book, unmatched orders carry
// across blocks, and each clear re-scores only the state the block's
// mutations dirtied. The book's differential harness (book/booktest)
// proves the incremental outcome byte-identical to the from-scratch
// mechanism over the same live set, so incremental and rebuild miners
// agree on every block body.
//
// Lock order: Miner.bookMu → ledger.Chain read locks → book.Book.mu.
// SyncBook must therefore never run inside a chain.Append verify
// callback (Append holds the chain lock for its whole duration and the
// chain mutex is not reentrant) — callers sync BEFORE appending and,
// on a verify-driven rejection, resync and retry.

// SyncBook replays every chain block the miner's book has not yet
// absorbed, in height order. Each block is executed with the body's
// reveals and committed to the book as one mutation batch under the
// block's evidence; the resulting outcome must re-encode to the committed
// allocation bytes, otherwise the local book has diverged from
// consensus and the error says at which height.
func (m *Miner) SyncBook(chain *ledger.Chain) error {
	if m.Book == nil {
		return nil
	}
	m.bookMu.Lock()
	defer m.bookMu.Unlock()
	for h := m.Book.Blocks(); h < chain.Len(); h++ {
		blk := chain.BlockAt(h)
		if blk == nil || blk.Body == nil {
			return fmt.Errorf("miner %s: sync book: no body at height %d", m.Name, h)
		}
		ex, err := m.execute(blk, blk.Body.Reveals, true)
		if err != nil {
			return fmt.Errorf("miner %s: sync book at height %d: %w", m.Name, h, err)
		}
		if !bytes.Equal(ex.alloc, blk.Body.Allocation) {
			return fmt.Errorf("miner %s: book diverged from chain at height %d: %w", m.Name, h, ErrAllocationMismatch)
		}
		// Advance the market clock: orders whose windows ended before
		// this block's earliest arrival can never be scheduled again
		// (Const. 10–11) and would otherwise haunt the live set until
		// their carry budget ran out. The watermark is derived from the
		// block's bid time fields, so every replica expires the same
		// set at the same height — expiry runs AFTER the apply, never
		// between a preview and its apply.
		if now, ok := book.ArrivalWatermark(ex.dec.Requests, ex.dec.Offers); ok {
			m.Book.ExpireBefore(now)
		}
	}
	return nil
}
