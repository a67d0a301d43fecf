// Package sealed implements the cryptography of the two-phase bid
// exposure protocol (Section III): participant identities (ed25519),
// sealed-bid envelopes (AES-256-GCM under single-use temporary keys, each
// envelope committing to its key), and the signed wrapper that goes into
// a block's preamble. Bids stay unreadable until their temporary keys are
// broadcast — unsigned, the envelope vouches — after the PoW is fixed.
package sealed

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"decloud/internal/bidding"
)

// KeySize is the AES-256 temporary key length.
const KeySize = 32

// Errors surfaced by the package.
var (
	ErrBadKey     = errors.New("sealed: temporary key must be 32 bytes")
	ErrOpenFailed = errors.New("sealed: envelope authentication failed")
	ErrBadReveal  = errors.New("sealed: reveal names another bid or a key the bid does not commit to")
	ErrShortData  = errors.New("sealed: envelope data too short")
)

// Identity is a participant's signing keypair. Its fingerprint doubles as
// the ParticipantID used in orders, binding bids to keys.
type Identity struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewIdentity generates an identity from crypto/rand.
func NewIdentity() (*Identity, error) {
	return NewIdentityFrom(rand.Reader)
}

// NewIdentityFrom generates an identity from the given entropy source
// (tests pass a deterministic reader).
func NewIdentityFrom(r io.Reader) (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(r)
	if err != nil {
		return nil, fmt.Errorf("sealed: generate identity: %w", err)
	}
	return &Identity{pub: pub, priv: priv}, nil
}

// Public returns the public key.
func (id *Identity) Public() ed25519.PublicKey { return id.pub }

// ParticipantID returns the hex fingerprint (SHA-256 of the public key,
// truncated to 16 bytes) used as the on-ledger participant identity.
func (id *Identity) ParticipantID() bidding.ParticipantID {
	return FingerprintOf(id.pub)
}

// FingerprintOf computes the participant fingerprint of a public key.
func FingerprintOf(pub ed25519.PublicKey) bidding.ParticipantID {
	sum := sha256.Sum256(pub)
	return bidding.ParticipantID(hex.EncodeToString(sum[:16]))
}

// Sign signs a message with the identity's private key.
func (id *Identity) Sign(msg []byte) []byte { return ed25519.Sign(id.priv, msg) }

// NewTempKeyFrom draws a temporary key from the given entropy source.
func NewTempKeyFrom(r io.Reader) ([]byte, error) {
	key := make([]byte, KeySize)
	if _, err := io.ReadFull(r, key); err != nil {
		return nil, fmt.Errorf("sealed: temp key: %w", err)
	}
	return key, nil
}

// Envelope is commitment ‖ nonce ‖ AES-256-GCM ciphertext. GCM alone lets
// one ciphertext authenticate under two keys; the first 32 bytes name the
// only key the envelope may be opened with, and whatever covers the
// envelope (Digest, the bid signature, ledger.HashBids) covers them.
type Envelope []byte

const (
	keyCommitDomain = "decloud/sealed/key-commit/v1" // the commitment is the hash of nothing else
	commitSize      = sha256.Size
	nonceSize       = 12 // cipher.NewGCM's standard nonce
)

// commitment is SHA-256(keyCommitDomain ‖ key) for a KeySize key.
func commitment(key []byte) [commitSize]byte {
	var msg [len(keyCommitDomain) + KeySize]byte
	copy(msg[copy(msg[:], keyCommitDomain):], key)
	return sha256.Sum256(msg[:])
}

// CommitsTo reports whether key is the envelope's one key; no cipher runs.
func (e Envelope) CommitsTo(key []byte) bool {
	if len(key) != KeySize || len(e) < commitSize {
		return false
	}
	c := commitment(key)
	return subtle.ConstantTimeCompare(c[:], e[:commitSize]) == 1
}

func newGCM(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("sealed: cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("sealed: gcm: %w", err)
	}
	return gcm, nil
}

// Seal encrypts payload under a 32-byte temporary key and commits to it.
func Seal(payload, key []byte, entropy io.Reader) (Envelope, error) {
	if len(key) != KeySize {
		return nil, ErrBadKey
	}
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	c := commitment(key)
	env := make([]byte, commitSize+nonceSize, commitSize+nonceSize+len(payload)+gcm.Overhead())
	copy(env, c[:])
	nonce := env[commitSize:]
	if _, err := io.ReadFull(entropy, nonce); err != nil {
		return nil, fmt.Errorf("sealed: nonce: %w", err)
	}
	return gcm.Seal(env, nonce, payload, nil), nil
}

// Open decrypts the envelope with the one temporary key it commits to.
func (e Envelope) Open(key []byte) ([]byte, error) {
	if len(key) != KeySize {
		return nil, ErrBadKey
	}
	if len(e) < commitSize+nonceSize {
		return nil, ErrShortData
	}
	if !e.CommitsTo(key) {
		return nil, ErrOpenFailed
	}
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	plain, err := gcm.Open(nil, e[commitSize:commitSize+nonceSize], e[commitSize+nonceSize:], nil)
	if err != nil {
		return nil, ErrOpenFailed
	}
	return plain, nil
}

// Bid is a sealed, signed order as it appears in a block preamble: the
// sender's public key, the encrypted order, and a signature over the
// envelope. The plaintext order inside must name the sender's
// fingerprint as its owner, which miners enforce after decryption.
type Bid struct {
	Sender    []byte   `json:"sender"` // ed25519 public key
	Envelope  Envelope `json:"envelope"`
	Signature []byte   `json:"signature"`
}

// SealBid encrypts and signs canonical order bytes.
func SealBid(id *Identity, orderBytes, tempKey []byte, entropy io.Reader) (*Bid, error) {
	env, err := Seal(orderBytes, tempKey, entropy)
	if err != nil {
		return nil, err
	}
	return &Bid{
		Sender:    append([]byte(nil), id.Public()...),
		Envelope:  env,
		Signature: id.Sign(env),
	}, nil
}

// VerifySignature checks the bid's signature over its envelope.
func (b *Bid) VerifySignature() bool {
	return len(b.Sender) == ed25519.PublicKeySize && ed25519.Verify(b.Sender, b.Envelope, b.Signature)
}

// SenderID returns the sender's participant fingerprint.
func (b *Bid) SenderID() bidding.ParticipantID {
	return FingerprintOf(ed25519.PublicKey(b.Sender))
}

// Digest identifies the bid (hash of the envelope); participants use it
// to find their bids in a preamble and to address key reveals.
func (b *Bid) Digest() [32]byte { return sha256.Sum256(b.Envelope) }

// Digests returns every bid's digest, in order.
func Digests(bids []*Bid) [][32]byte {
	ds := make([][32]byte, len(bids))
	for i, b := range bids {
		ds[i] = b.Digest()
	}
	return ds
}

// SortedByDigest returns the bids in a preamble's canonical order —
// ascending digest, an order no miner can game — digesting each bid once
// rather than twice per comparison. The input is left untouched.
func SortedByDigest(bids []*Bid) []*Bid {
	type keyed struct {
		digest [32]byte
		bid    *Bid
	}
	keys := make([]keyed, len(bids))
	for i, b := range bids {
		keys[i] = keyed{b.Digest(), b}
	}
	sort.Slice(keys, func(i, j int) bool {
		return bytes.Compare(keys[i].digest[:], keys[j].digest[:]) < 0
	})
	ordered := make([]*Bid, len(keys))
	for i, k := range keys {
		ordered[i] = k.bid
	}
	return ordered
}

// Index is the committed-digest index of one preamble, derived once and
// shared by everyone who has to find bids in it: the digest at every
// position, and the positions of every digest.
type Index struct {
	// Digests[i] is the digest of the preamble's i-th bid.
	Digests [][32]byte
	first   map[[32]byte]int
	// next[i] is the next position committing the same digest as
	// position i (0: none). Nil unless some digest is committed twice.
	next []int
}

// NewIndex digests each of a preamble's bids once.
func NewIndex(bids []*Bid) *Index {
	ix := &Index{Digests: Digests(bids), first: make(map[[32]byte]int, len(bids))}
	for i := len(bids) - 1; i >= 0; i-- {
		d := ix.Digests[i]
		if j, dup := ix.first[d]; dup {
			if ix.next == nil {
				ix.next = make([]int, len(bids))
			}
			ix.next[i] = j
		}
		ix.first[d] = i
	}
	return ix
}

// Positions appends to dst, in ascending order, every position at which
// the preamble commits digest d.
func (ix *Index) Positions(dst []int, d [32]byte) []int {
	i, ok := ix.first[d]
	for ok {
		dst = append(dst, i)
		if ix.next == nil {
			break
		}
		i = ix.next[i]
		ok = i != 0
	}
	return dst
}

// BidKey identifies a bid by everything a preamble commits to about it
// (ledger.HashBids): envelope, sender and signature. Two bids with equal
// keys pass or fail VerifySignature together, which Digest alone — the
// envelope's hash — does not promise: anyone can re-sign a seen envelope
// under another key, or attach a forged signature to it.
type BidKey struct {
	Digest    [32]byte
	Sender    [ed25519.PublicKeySize]byte
	Signature [ed25519.SignatureSize]byte
}

// Key returns the bid's key. ok is false when the sender or signature
// does not have ed25519's size; such a bid has no key and never verifies.
func (b *Bid) Key() (k BidKey, ok bool) {
	if len(b.Sender) != len(k.Sender) || len(b.Signature) != len(k.Signature) {
		return k, false
	}
	k.Digest = b.Digest()
	copy(k.Sender[:], b.Sender)
	copy(k.Signature[:], b.Signature)
	return k, true
}

// Verified is one node's set of bids whose signature it has checked
// itself. Membership is by value (BidKey), never by pointer: a bid
// mutated after it was added has a different key and is simply not in
// the set. Forgetting is by the pointer that was added, so a holder can
// always take back exactly what it put in, mutated since or not; a bid
// the set never saw as a pointer — the same bid decoded from a block —
// is forgotten by value. The zero value is an empty set; a nil *Verified
// holds nothing. Safe for concurrent use.
type Verified struct {
	mu   sync.Mutex
	set  map[BidKey]struct{}
	keys map[*Bid]BidKey // the key each added bid was added under
}

// Add records a bid whose signature the caller has just verified.
func (v *Verified) Add(b *Bid) {
	k, ok := b.Key()
	if !ok {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.set == nil {
		v.set = make(map[BidKey]struct{})
		v.keys = make(map[*Bid]BidKey)
	}
	if old, again := v.keys[b]; again && old != k {
		delete(v.set, old)
	}
	v.set[k] = struct{}{}
	v.keys[b] = k
}

// Has reports whether a bid with exactly this envelope, sender and
// signature was added and not forgotten since.
func (v *Verified) Has(b *Bid) bool {
	if v == nil {
		return false
	}
	k, ok := b.Key()
	if !ok {
		return false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	_, ok = v.set[k]
	return ok
}

// Forget drops bids from the set (absent ones are ignored).
func (v *Verified) Forget(bids ...*Bid) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, b := range bids {
		k, ok := v.keys[b]
		if ok {
			delete(v.keys, b)
		} else if k, ok = b.Key(); !ok {
			continue
		}
		delete(v.set, k)
	}
}

// Len reports how many added bids have not been forgotten — never fewer
// than the keys the set holds, since every key was added with a bid.
func (v *Verified) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.keys)
}

// KeyReveal is the broadcast of a bid's temporary key after the preamble
// is public — unsigned: the owner signed an envelope that commits to one
// key, so whoever relays it reveals the owner's order and nothing else.
type KeyReveal struct {
	BidDigest [32]byte `json:"bid_digest"`
	Key       []byte   `json:"key"`
}

// NewKeyReveal builds the reveal of a bid's temporary key.
func NewKeyReveal(bid *Bid, tempKey []byte) *KeyReveal {
	return &KeyReveal{BidDigest: bid.Digest(), Key: append([]byte(nil), tempKey...)}
}

// Verify checks that the reveal names this bid and carries the key the
// bid's envelope commits to: two hashes, no signature.
func (kr *KeyReveal) Verify(bid *Bid) error {
	if kr.BidDigest != bid.Digest() || !bid.Envelope.CommitsTo(kr.Key) {
		return ErrBadReveal
	}
	return nil
}
