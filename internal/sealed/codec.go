package sealed

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"slices"
)

// ErrBadEncoding is returned for bytes that are not one encoded value, and
// for a value with no encoding. Fields are fixed-width and counts fixed-width
// u32s, so a value has one encoding; decoders check a count against the bytes
// left before allocating, refuse trailing bytes, and alias their input.
var ErrBadEncoding = errors.New("sealed: malformed encoding")

const bidHeader, revealSize = ed25519.PublicKeySize + ed25519.SignatureSize + 4, 32 + KeySize // sender ‖ signature ‖ u32 len; digest ‖ key

// AppendBid appends sender(32) ‖ signature(64) ‖ u32 len ‖ envelope; a bid
// with a wrong-size sender or signature, which never verifies, has no encoding.
func AppendBid(dst []byte, b *Bid) ([]byte, error) {
	if len(b.Sender) != ed25519.PublicKeySize || len(b.Signature) != ed25519.SignatureSize {
		return dst, ErrBadEncoding
	}
	dst = append(append(slices.Grow(dst, bidHeader+len(b.Envelope)), b.Sender...), b.Signature...)
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(b.Envelope))), b.Envelope...), nil
}

// ReadBid decodes the bid at the front of data and returns the rest.
func ReadBid(data []byte) (*Bid, []byte, error) {
	if len(data) < bidHeader || uint64(binary.BigEndian.Uint32(data[bidHeader-4:])) > uint64(len(data)-bidHeader) {
		return nil, nil, ErrBadEncoding
	}
	end := bidHeader + int(binary.BigEndian.Uint32(data[bidHeader-4:]))
	return &Bid{Sender: data[:32:32], Signature: data[32:96:96], Envelope: data[bidHeader:end:end]}, data[end:], nil
}

// DecodeBid decodes data that is exactly one bid.
func DecodeBid(data []byte) (*Bid, error) { return whole(ReadBid(data)) }

// AppendReveals appends u32 n ‖ n × (digest(32) ‖ key(32)); a nil reveal or
// a key that is not KeySize long has no encoding.
func AppendReveals(dst []byte, krs []*KeyReveal) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(slices.Grow(dst, 4+len(krs)*revealSize), uint32(len(krs)))
	for _, kr := range krs {
		if kr == nil || len(kr.Key) != KeySize {
			return dst, ErrBadEncoding
		}
		dst = append(append(dst, kr.BidDigest[:]...), kr.Key...)
	}
	return dst, nil
}

// ReadReveals decodes the reveal batch at the front of data and returns the rest.
func ReadReveals(data []byte) ([]*KeyReveal, []byte, error) {
	if len(data) < 4 || uint64(binary.BigEndian.Uint32(data)) > uint64(len(data)-4)/revealSize {
		return nil, nil, ErrBadEncoding
	}
	n := int(binary.BigEndian.Uint32(data))
	krs, backing := make([]*KeyReveal, n), make([]KeyReveal, n)
	for i, at := 0, data[4:]; i < n; i, at = i+1, at[revealSize:] {
		copy(backing[i].BidDigest[:], at)
		backing[i].Key, krs[i] = at[32:revealSize:revealSize], &backing[i]
	}
	return krs, data[4+n*revealSize:], nil
}

// DecodeReveals decodes data that is exactly one reveal batch.
func DecodeReveals(data []byte) ([]*KeyReveal, error) { return whole(ReadReveals(data)) }

// whole refuses what a Read* decoder left over.
func whole[T any](v T, rest []byte, err error) (T, error) {
	if err == nil && len(rest) > 0 {
		return *new(T), ErrBadEncoding
	}
	return v, err
}
