package sealed

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"testing"
)

// refusesMangled checks the strictness every decoder owes: each strict
// prefix of an encoding, the encoding plus a trailing byte, and the
// encoding with the u32 at countAt raised past what the bytes left could
// hold are all refused.
func refusesMangled(t *testing.T, enc []byte, countAt, unit int, decode func([]byte) error) {
	t.Helper()
	for k := 0; k < len(enc); k++ {
		if decode(enc[:k]) == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte encoding decoded", k, len(enc))
		}
	}
	if decode(append(append([]byte(nil), enc...), 0)) == nil {
		t.Fatal("trailing byte accepted")
	}
	over := append([]byte(nil), enc...)
	binary.BigEndian.PutUint32(over[countAt:], uint32((len(enc)-countAt-4)/unit+1))
	if decode(over) == nil {
		t.Fatal("a count beyond the remaining bytes was accepted")
	}
}

func sameBid(a, b *Bid) bool {
	return bytes.Equal(a.Sender, b.Sender) && bytes.Equal(a.Signature, b.Signature) && bytes.Equal(a.Envelope, b.Envelope)
}

// FuzzBidDecode: any byte string DecodeBid accepts re-encodes to exactly
// those bytes, any bid with ed25519-sized sender and signature encodes
// and decodes back equal, a bid with a wrong-size one has no encoding,
// and short input, trailing bytes and an envelope length beyond the
// bytes left are refused.
func FuzzBidDecode(f *testing.F) {
	good, _ := AppendBid(nil, &Bid{Sender: make([]byte, 32), Signature: make([]byte, 64), Envelope: []byte("envelope")})
	f.Add(good, bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 64), []byte("env"))
	f.Add([]byte{}, []byte{3}, bytes.Repeat([]byte{4}, 65), []byte{})
	f.Fuzz(func(t *testing.T, data, sender, sig, env []byte) {
		if b, err := DecodeBid(data); err == nil {
			if again, err := AppendBid(nil, b); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted %x re-encodes to %x, %v", data, again, err)
			}
		}
		bid := &Bid{Sender: sender, Signature: sig, Envelope: env}
		enc, err := AppendBid(nil, bid)
		if len(sender) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
			if !errors.Is(err, ErrBadEncoding) {
				t.Fatalf("a %d-byte sender and %d-byte signature encoded: %v", len(sender), len(sig), err)
			}
			return
		}
		if err != nil || len(enc) != bidHeader+len(env) {
			t.Fatalf("encode: %d bytes, %v", len(enc), err)
		}
		if back, err := DecodeBid(enc); err != nil || !sameBid(back, bid) {
			t.Fatalf("round trip: %+v, %v", back, err)
		}
		refusesMangled(t, enc, bidHeader-4, 1, func(b []byte) error { _, err := DecodeBid(b); return err })
	})
}

// FuzzRevealBatch: any byte string DecodeReveals accepts re-encodes to
// exactly those bytes, any batch of well-formed reveals decodes back
// equal, and short input, trailing bytes and a count beyond the bytes
// left are refused.
func FuzzRevealBatch(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0}, bytes.Repeat([]byte{7}, 3*revealSize))
	f.Add([]byte{0, 0, 0, 1}, []byte{})
	f.Fuzz(func(t *testing.T, data, blob []byte) {
		if krs, err := DecodeReveals(data); err == nil {
			if again, err := AppendReveals(nil, krs); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted %x re-encodes to %x, %v", data, again, err)
			}
		}
		var krs []*KeyReveal
		for ; len(blob) >= revealSize; blob = blob[revealSize:] {
			kr := &KeyReveal{Key: blob[32:revealSize]}
			copy(kr.BidDigest[:], blob)
			krs = append(krs, kr)
		}
		enc, err := AppendReveals(nil, krs)
		if err != nil || len(enc) != 4+len(krs)*revealSize {
			t.Fatalf("encode: %d bytes, %v", len(enc), err)
		}
		back, err := DecodeReveals(enc)
		if err != nil || len(back) != len(krs) {
			t.Fatalf("round trip: %d of %d reveals, %v", len(back), len(krs), err)
		}
		for i, kr := range back {
			if kr.BidDigest != krs[i].BidDigest || !bytes.Equal(kr.Key, krs[i].Key) {
				t.Fatalf("reveal %d changed in the round trip", i)
			}
		}
		refusesMangled(t, enc, 0, revealSize, func(b []byte) error { _, err := DecodeReveals(b); return err })
	})
}

// TestRevealWithoutEncoding: a nil reveal and a key of the wrong size are
// unrepresentable; they are refused, not written.
func TestRevealWithoutEncoding(t *testing.T) {
	for _, krs := range [][]*KeyReveal{{nil}, {{Key: make([]byte, KeySize-1)}}, {{Key: nil}}} {
		if _, err := AppendReveals(nil, krs); !errors.Is(err, ErrBadEncoding) {
			t.Fatalf("%+v encoded: %v", krs, err)
		}
	}
}

// TestDecodedBidIsIndependentOfAppends: a decoded bid aliases its input
// but is capacity-clipped, so appending to one field cannot write over
// the next.
func TestDecodedBidIsIndependentOfAppends(t *testing.T) {
	enc, err := AppendBid(nil, &Bid{Sender: bytes.Repeat([]byte{1}, 32), Signature: bytes.Repeat([]byte{2}, 64), Envelope: []byte{3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBid(enc)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(b.Sender, 9)
	_ = append(b.Signature, 9)
	if b.Signature[0] != 2 || b.Envelope[0] != 3 {
		t.Fatal("an append to a decoded field overwrote the next field")
	}
}
