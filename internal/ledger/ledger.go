// Package ledger implements the blockchain substrate of the two-phase
// bid exposure protocol (Sections II-A and III): blocks made of a mined
// preamble (previous-block reference, proof-of-work, sealed bids) and a
// body (revealed temporary keys plus the allocation suggestion), chained
// and verified. The preamble's PoW hash doubles as the public random
// evidence that seeds the mechanism's verifiable randomized exclusions.
package ledger

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"decloud/internal/auction"
	"decloud/internal/sealed"
)

// Errors returned by chain operations.
var (
	ErrBadLinkage    = errors.New("ledger: previous-hash linkage broken")
	ErrBadPoW        = errors.New("ledger: proof-of-work invalid")
	ErrBadBidsHash   = errors.New("ledger: sealed-bids hash mismatch")
	ErrNoBody        = errors.New("ledger: block has no body")
	ErrBadAllocation = errors.New("ledger: allocation hash mismatch")
)

// Preamble is the first part of a block, shared right after the PoW is
// solved and before any bid is readable.
type Preamble struct {
	Height     int64    `json:"height"`
	PrevHash   [32]byte `json:"prev_hash"`
	Timestamp  int64    `json:"timestamp"`
	Difficulty int      `json:"difficulty"` // required leading zero bits
	Nonce      uint64   `json:"nonce"`
	BidsHash   [32]byte `json:"bids_hash"`
}

const preambleSize = 8*4 + 32*2 // the length of appendTo's encoding

// appendTo appends what Hash hashes and a block on the wire starts with:
// height ‖ prev hash ‖ timestamp ‖ difficulty ‖ nonce ‖ bids hash, integers
// as big-endian u64.
func (p *Preamble) appendTo(dst []byte) []byte {
	dst = append(binary.BigEndian.AppendUint64(dst, uint64(p.Height)), p.PrevHash[:]...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.Timestamp))
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.Difficulty))
	return append(binary.BigEndian.AppendUint64(dst, p.Nonce), p.BidsHash[:]...)
}

// Hash computes the preamble's canonical SHA-256 hash.
func (p *Preamble) Hash() [32]byte {
	var buf [preambleSize]byte
	return sha256.Sum256(p.appendTo(buf[:0]))
}

// ValidPoW reports whether the preamble hash has the required number of
// leading zero bits.
func (p *Preamble) ValidPoW() bool {
	return leadingZeroBits(p.Hash()) >= p.Difficulty
}

func leadingZeroBits(h [32]byte) int {
	total := 0
	for _, b := range h {
		if b == 0 {
			total += 8
			continue
		}
		total += bits.LeadingZeros8(b)
		break
	}
	return total
}

// Mine searches for a nonce satisfying the difficulty, checking ctx
// between attempts so racing miners can be cancelled. Returns false if
// cancelled or maxIter exhausted.
func Mine(ctx context.Context, p *Preamble, maxIter uint64) bool {
	for i := uint64(0); maxIter == 0 || i < maxIter; i++ {
		select {
		case <-ctx.Done():
			return false
		default:
		}
		if p.ValidPoW() {
			return true
		}
		p.Nonce++
	}
	return false
}

// HashBids computes the canonical hash of a sealed-bid set. Order matters:
// the mining miner fixes the order when assembling the preamble.
func HashBids(bids []*sealed.Bid) [32]byte {
	h := sha256.New()
	for _, b := range bids {
		d := b.Digest()
		h.Write(d[:])
		h.Write(b.Sender)
		h.Write(b.Signature)
	}
	return [32]byte(h.Sum(nil))
}

// AllocationRecord is one match as recorded on-chain.
type AllocationRecord struct {
	RequestID string             `json:"request_id"`
	OfferID   string             `json:"offer_id"`
	Client    string             `json:"client"`
	Provider  string             `json:"provider"`
	Payment   float64            `json:"payment"`
	UnitPrice float64            `json:"unit_price"`
	Granted   map[string]float64 `json:"granted"`
}

// EncodeAllocation serializes an outcome's matches deterministically
// (Outcome.Matches is already deterministically ordered).
func EncodeAllocation(out *auction.Outcome) ([]byte, error) {
	records := make([]AllocationRecord, 0, len(out.Matches))
	for _, m := range out.Matches {
		granted := make(map[string]float64, len(m.Granted))
		for k, q := range m.Granted {
			granted[string(k)] = q
		}
		records = append(records, AllocationRecord{
			RequestID: string(m.Request.ID),
			OfferID:   string(m.Offer.ID),
			Client:    string(m.Request.Client),
			Provider:  string(m.Offer.Provider),
			Payment:   m.Payment,
			UnitPrice: m.UnitPrice,
			Granted:   granted,
		})
	}
	data, err := json.Marshal(records)
	if err != nil {
		return nil, fmt.Errorf("ledger: encode allocation: %w", err)
	}
	return data, nil
}

// DecodeAllocation parses on-chain allocation records.
func DecodeAllocation(data []byte) ([]AllocationRecord, error) {
	var records []AllocationRecord
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("ledger: decode allocation: %w", err)
	}
	return records, nil
}

// Body is the block's second part, broadcast after key reveal and
// allocation computation.
type Body struct {
	Reveals        []*sealed.KeyReveal `json:"reveals"`
	Allocation     []byte              `json:"allocation"`
	AllocationHash [32]byte            `json:"allocation_hash"`
}

// NewBody assembles a body, hashing the allocation bytes.
func NewBody(reveals []*sealed.KeyReveal, allocation []byte) *Body {
	return &Body{
		Reveals:        reveals,
		Allocation:     allocation,
		AllocationHash: sha256.Sum256(allocation),
	}
}

// Block is a full block: mined preamble, the sealed bids it commits to,
// and (after the execution phase) the body.
type Block struct {
	Preamble Preamble      `json:"preamble"`
	Bids     []*sealed.Bid `json:"bids"`
	Body     *Body         `json:"body,omitempty"`
}

// Evidence returns the block's public randomness: the preamble hash,
// fixed by PoW before any bid was readable — so neither the miner nor
// any participant could grind it against bid contents.
func (b *Block) Evidence() []byte {
	h := b.Preamble.Hash()
	return h[:]
}

// Validate checks the block's self-consistency: PoW, bids hash, body
// presence, and allocation hash.
func (b *Block) Validate() error {
	if !b.Preamble.ValidPoW() {
		return ErrBadPoW
	}
	if HashBids(b.Bids) != b.Preamble.BidsHash {
		return ErrBadBidsHash
	}
	if b.Body == nil {
		return ErrNoBody
	}
	if sha256.Sum256(b.Body.Allocation) != b.Body.AllocationHash {
		return ErrBadAllocation
	}
	return nil
}

// Chain is an append-only sequence of validated blocks. The zero-height
// genesis block is implicit: the first appended block must reference the
// all-zero hash. Chain is safe for concurrent use: every accessor takes
// the RWMutex, and Append holds the write lock across validation and
// the verify callback so linkage is checked against a stable head (this
// deliberately serializes appends — re-executing an allocation under
// the lock is the price of a consistent replica). Head and BlockAt
// return pointers into the chain without copying, so appended blocks
// are shared: callers must treat a *Block as immutable once it has been
// appended anywhere.
type Chain struct {
	mu     sync.RWMutex
	blocks []*Block
}

// NewChain returns an empty chain.
func NewChain() *Chain { return &Chain{} }

// Len returns the number of blocks.
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.blocks)
}

// Head returns the latest block, or nil for an empty chain.
func (c *Chain) Head() *Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.blocks) == 0 {
		return nil
	}
	return c.blocks[len(c.blocks)-1]
}

// HeadHash returns the hash the next block must reference.
func (c *Chain) HeadHash() [32]byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.blocks) == 0 {
		return [32]byte{}
	}
	return c.blocks[len(c.blocks)-1].Preamble.Hash()
}

// BlockAt returns the i-th block (nil when out of range).
func (c *Chain) BlockAt(i int) *Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i < 0 || i >= len(c.blocks) {
		return nil
	}
	return c.blocks[i]
}

// Append validates and appends a block. The optional verify callback lets
// callers add semantic validation (miners re-executing the allocation).
func (c *Chain) Append(b *Block, verify func(*Block) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var prev [32]byte
	var height int64
	if len(c.blocks) > 0 {
		head := c.blocks[len(c.blocks)-1]
		prev = head.Preamble.Hash()
		height = head.Preamble.Height + 1
	}
	if b.Preamble.PrevHash != prev || b.Preamble.Height != height {
		return ErrBadLinkage
	}
	if err := b.Validate(); err != nil {
		return err
	}
	if verify != nil {
		if err := verify(b); err != nil {
			return fmt.Errorf("ledger: block verification: %w", err)
		}
	}
	c.blocks = append(c.blocks, b)
	return nil
}

// CheckNoDoubleSettle audits the uniqueness invariant of a federation's
// chains (one per metro exchange, in metro order): a request settles on
// at most one chain, at most once. root maps a request ID to the identity
// that must be unique: nil for the ID itself (an in-process spill keeps
// it), or the function undoing the per-hop rename of a forwarder that
// re-IDs what it relays (devnet.SpillRoot). It returns how many requests
// settled and how many of them under a renamed ID.
func CheckNoDoubleSettle(root func(string) string, chains ...*Chain) (settled, renamed int, err error) {
	at := make(map[string]int) // request root → chain that settled it
	for m, chain := range chains {
		for h := 0; h < chain.Len(); h++ {
			records, err := DecodeAllocation(chain.BlockAt(h).Body.Allocation)
			if err != nil {
				return 0, 0, fmt.Errorf("ledger: chain %d height %d: %w", m, h, err)
			}
			for _, rec := range records {
				id := rec.RequestID
				if root != nil {
					id = root(id)
				}
				if prev, dup := at[id]; dup {
					return 0, 0, fmt.Errorf("ledger: request %q settled on chain %d and again on chain %d", id, prev, m)
				}
				at[id] = m
				if id != rec.RequestID {
					renamed++
				}
			}
		}
	}
	return len(at), renamed, nil
}
