package miner

import (
	"sync"

	"decloud/internal/obs"
	"decloud/internal/sealed"
)

// Pool is a node's door: its pending sealed bids and the trust set of
// bids whose signature it checked itself (Miner.Admitted: the block
// executor skips exactly those). Both change only through the methods
// below, so a bid is trusted only if this pool checked it, and a drained
// bid ends exactly one way — Committed, Return or Discard — leaving the
// set at pending + in-flight. Safe for concurrent use.
//
// Known hole, pinned not fixed (ROADMAP item 1): the pool dedupes on the
// digest — the envelope's hash — alone. A peer that re-signs a bid seen in
// gossip under its own key and gets here first has the owner's bid
// absorbed as a duplicate; its copy then fails the owner check at decrypt
// and the order is censored for the round. Keying the door by
// sealed.BidKey is a protocol change.
type Pool struct {
	mu        sync.Mutex
	pending   []*sealed.Bid
	have      map[[32]byte]bool // digests of pending
	committed map[[32]byte]bool // digests on the owning node's chain
	limit     int               // max pending bids; 0 = unlimited
	verified  sealed.Verified
	metrics   func() *obs.MinerMetrics
}

// NewPool returns an empty, unlimited pool. metrics returns the bundle
// its signature checks are counted in, or nil for nowhere.
func NewPool(metrics func() *obs.MinerMetrics) *Pool {
	return &Pool{
		have:      make(map[[32]byte]bool),
		committed: make(map[[32]byte]bool),
		metrics:   metrics,
	}
}

// Verified is the pool's trust set, for the owning node's miners to read.
func (p *Pool) Verified() *sealed.Verified { return &p.verified }

// refuse reports why digest d stays out: already pending or committed
// (absorbed), or the pool is full. p.mu held.
func (p *Pool) refuse(d [32]byte) (absorbed bool, err error) {
	if p.have[d] || p.committed[d] {
		return true, nil
	}
	if p.limit > 0 && len(p.pending) >= p.limit {
		return false, ErrPoolFull
	}
	return false, nil
}

// Admit is the door. The free refusals come first — a bid already pending
// or committed is absorbed (nil), a full pool is ErrPoolFull — so neither
// a replayed frame nor a flood against a full pool buys a signature
// check. Then the one check (ErrBadBid), outside the lock so admitters on
// different connections verify in parallel; then, refusals re-checked,
// the bid enters the pool and the trust set together.
func (p *Pool) Admit(b *sealed.Bid) error {
	d := b.Digest()
	p.mu.Lock()
	absorbed, err := p.refuse(d)
	p.mu.Unlock()
	if absorbed || err != nil {
		return err
	}
	if m := p.metrics(); m != nil {
		m.BidSigChecked.Inc()
	}
	if !b.VerifySignature() {
		return ErrBadBid
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if absorbed, err := p.refuse(d); absorbed || err != nil {
		return err
	}
	p.have[d] = true
	p.pending = append(p.pending, b)
	p.verified.Add(b)
	return nil
}

// Drain takes every pending bid for a round; they stay trusted, in
// flight, until the round ends them with Committed, Return or Discard.
func (p *Pool) Drain() []*sealed.Bid {
	p.mu.Lock()
	defer p.mu.Unlock()
	bids := p.pending
	p.pending = nil
	p.have = make(map[[32]byte]bool)
	return bids
}

// Return ends a round that died before anything was appended or
// broadcast: its bids go back, still trusted; those that no longer fit
// (the pool refilled or its limit shrank meanwhile) are forgotten.
func (p *Pool) Return(bids []*sealed.Bid) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range bids {
		d := b.Digest()
		if absorbed, err := p.refuse(d); absorbed || err != nil {
			p.verified.Forget(b)
			continue
		}
		p.have[d] = true
		p.pending = append(p.pending, b)
	}
}

// Discard ends a round whose bids are given up.
func (p *Pool) Discard(bids []*sealed.Bid) { p.verified.Forget(bids...) }

// Committed records a block appended to the owning node's chain, whoever
// produced it: its bids leave the trust set, pending copies are pruned,
// and their digests never (re-)enter a later round, however late the
// transport redelivers them. digests[i] is bids[i].Digest(), for a
// caller that holds them; nil derives them.
func (p *Pool) Committed(bids []*sealed.Bid, digests [][32]byte) {
	if digests == nil {
		digests = sealed.Digests(bids)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range digests {
		p.committed[d] = true
	}
	p.verified.Forget(bids...)
	kept := p.pending[:0]
	for _, b := range p.pending {
		if d := b.Digest(); p.committed[d] {
			delete(p.have, d)
			p.verified.Forget(b)
			continue
		}
		kept = append(kept, b)
	}
	p.pending = kept
}

// Len reports the number of pending bids.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// SetLimit caps the number of pending bids (0 = unlimited).
func (p *Pool) SetLimit(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.limit = n
}

// Limit returns the cap on pending bids (0 = unlimited).
func (p *Pool) Limit() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.limit
}
