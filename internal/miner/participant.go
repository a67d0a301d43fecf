// Package miner implements the actors of the two-phase bid exposure
// protocol (Section III): participants who seal and later reveal their
// bids, miners who race on proof-of-work, compute the allocation, and
// verify each other's blocks, and the Network that orchestrates one
// protocol round end to end.
package miner

import (
	"crypto/rand"
	"fmt"
	"io"
	"sort"
	"sync"

	"decloud/internal/bidding"
	"decloud/internal/sealed"
)

// Participant is a client or provider endpoint: it owns an identity,
// seals orders under fresh temporary keys, and reveals those keys once it
// sees its bids committed in a valid preamble.
type Participant struct {
	identity *sealed.Identity
	entropy  io.Reader

	mu      sync.Mutex
	pending map[[32]byte][]byte // bid digest → retained temporary key
}

// NewParticipant creates a participant with a fresh identity. A nil
// entropy reader defaults to crypto/rand; tests pass a deterministic one.
func NewParticipant(entropy io.Reader) (*Participant, error) {
	if entropy == nil {
		entropy = rand.Reader
	}
	id, err := sealed.NewIdentityFrom(entropy)
	if err != nil {
		return nil, err
	}
	return &Participant{
		identity: id,
		entropy:  entropy,
		pending:  make(map[[32]byte][]byte),
	}, nil
}

// ID returns the participant's on-ledger fingerprint.
func (p *Participant) ID() bidding.ParticipantID { return p.identity.ParticipantID() }

// SubmitRequest seals a request under a fresh temporary key. The
// request's Client field is overwritten with the participant's
// fingerprint — orders are bound to the signing key, and miners enforce
// this binding after decryption.
func (p *Participant) SubmitRequest(r *bidding.Request) (*sealed.Bid, error) {
	r.Client = p.ID()
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("miner: refusing to seal invalid request: %w", err)
	}
	data, err := r.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return p.seal(data)
}

// SubmitOffer seals an offer under a fresh temporary key, binding its
// Provider field to the participant's fingerprint.
func (p *Participant) SubmitOffer(o *bidding.Offer) (*sealed.Bid, error) {
	o.Provider = p.ID()
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("miner: refusing to seal invalid offer: %w", err)
	}
	data, err := o.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return p.seal(data)
}

func (p *Participant) seal(orderBytes []byte) (*sealed.Bid, error) {
	key, err := sealed.NewTempKeyFrom(p.entropy)
	if err != nil {
		return nil, err
	}
	bid, err := sealed.SealBid(p.identity, orderBytes, key, p.entropy)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.pending[bid.Digest()] = key
	p.mu.Unlock()
	return bid, nil
}

// RevealsIn inspects a preamble — by its digest index, which a caller
// asking many participants about one preamble builds once — and returns
// the (unsigned) key reveal of every retained bid of this participant
// committed there. The call is idempotent: re-asking for the same
// committed bid yields an equal reveal rather than nothing, because
// reveal messages can be lost in transit and the retry path —
// re-broadcast preambles, re-requested reveals — depends on participants
// answering again. Keys therefore stay retained until the caller Forgets
// them, typically once the block is final on-chain. It walks the smaller
// of {own retained bids, committed bids}; reveals come back in preamble
// order either way.
func (p *Participant) RevealsIn(ix *sealed.Index) []*sealed.KeyReveal {
	p.mu.Lock()
	defer p.mu.Unlock()
	var at []int // committed positions of this participant's bids
	if len(p.pending) < len(ix.Digests) {
		for d := range p.pending {
			at = ix.Positions(at, d)
		}
		sort.Ints(at)
	} else {
		for i, d := range ix.Digests {
			if _, ok := p.pending[d]; ok {
				at = append(at, i)
			}
		}
	}
	var reveals []*sealed.KeyReveal
	for _, i := range at {
		d := ix.Digests[i]
		reveals = append(reveals, &sealed.KeyReveal{BidDigest: d, Key: append([]byte(nil), p.pending[d]...)})
	}
	return reveals
}

// RevealAll asks every participant, in order, for its reveals to one
// preamble, which was digested once for all of them.
func RevealAll(parts []*Participant, ix *sealed.Index) []*sealed.KeyReveal {
	var all []*sealed.KeyReveal
	for _, p := range parts {
		all = append(all, p.RevealsIn(ix)...)
	}
	return all
}

// Forget drops the retained keys for the given bid digests — called once
// the bids' block is final and no further reveal can be requested.
func (p *Participant) Forget(digests [][32]byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range digests {
		delete(p.pending, d)
	}
}
