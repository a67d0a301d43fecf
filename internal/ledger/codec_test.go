package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"decloud/internal/sealed"
)

// fuzzBlock builds a block from fuzz inputs: up to 7 bids whose
// envelopes split envs, and — when withBody — up to 7 reveals and the
// allocation bytes.
func fuzzBlock(height, ts, diff int64, nonce uint64, seed, envs []byte, nBids uint8, withBody bool, nReveals uint8, alloc []byte) *Block {
	b := &Block{Preamble: Preamble{
		Height: height, Timestamp: ts, Difficulty: int(diff), Nonce: nonce,
		PrevHash: sha256.Sum256(append([]byte("prev"), seed...)),
		BidsHash: sha256.Sum256(append([]byte("bids"), seed...)),
	}}
	n := int(nBids % 8)
	for i := 0; i < n; i++ {
		b.Bids = append(b.Bids, &sealed.Bid{
			Sender:    bytes.Repeat([]byte{byte(i)}, 32),
			Signature: bytes.Repeat([]byte{byte(i + 1)}, 64),
			Envelope:  envs[i*len(envs)/n : (i+1)*len(envs)/n],
		})
	}
	if withBody {
		var reveals []*sealed.KeyReveal
		for i := 0; i < int(nReveals%8); i++ {
			key := sha256.Sum256([]byte{byte(i)})
			reveals = append(reveals, &sealed.KeyReveal{BidDigest: sha256.Sum256(key[:]), Key: key[:]})
		}
		b.Body = NewBody(reveals, alloc)
	}
	return b
}

func sameBlock(a, b *Block) bool {
	if a.Preamble != b.Preamble || len(a.Bids) != len(b.Bids) || (a.Body == nil) != (b.Body == nil) {
		return false
	}
	for i := range a.Bids {
		x, y := a.Bids[i], b.Bids[i]
		if !bytes.Equal(x.Sender, y.Sender) || !bytes.Equal(x.Signature, y.Signature) || !bytes.Equal(x.Envelope, y.Envelope) {
			return false
		}
	}
	if a.Body == nil {
		return true
	}
	if len(a.Body.Reveals) != len(b.Body.Reveals) || !bytes.Equal(a.Body.Allocation, b.Body.Allocation) || a.Body.AllocationHash != b.Body.AllocationHash {
		return false
	}
	for i, kr := range a.Body.Reveals {
		if kr.BidDigest != b.Body.Reveals[i].BidDigest || !bytes.Equal(kr.Key, b.Body.Reveals[i].Key) {
			return false
		}
	}
	return true
}

// FuzzBlockDecode: any byte string DecodeBlock accepts re-encodes to
// exactly those bytes, any block — with or without body — encodes and
// decodes back equal, and short input, trailing bytes and a bid count
// beyond the bytes left are refused.
func FuzzBlockDecode(f *testing.F) {
	f.Add([]byte{}, int64(3), int64(1700000000), int64(8), uint64(77), []byte("seed"), []byte("envelopes of bids"), uint8(3), true, uint8(2), []byte(`[{"request_id":"r"}]`))
	f.Add([]byte{0}, int64(-1), int64(0), int64(-5), uint64(1<<63), []byte{}, []byte{}, uint8(0), false, uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, data []byte, height, ts, diff int64, nonce uint64, seed, envs []byte, nBids uint8, withBody bool, nReveals uint8, alloc []byte) {
		if b, err := DecodeBlock(data); err == nil {
			if again, err := AppendBlock(nil, b); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted %x re-encodes to %x, %v", data, again, err)
			}
		}
		block := fuzzBlock(height, ts, diff, nonce, seed, envs, nBids, withBody, nReveals, alloc)
		enc, err := AppendBlock(nil, block)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := DecodeBlock(enc); err != nil || !sameBlock(back, block) {
			t.Fatalf("round trip: %+v, %v", back, err)
		}
		for k := 0; k < len(enc); k++ {
			if _, err := DecodeBlock(enc[:k]); err == nil {
				t.Fatalf("a %d-byte prefix of a %d-byte block decoded", k, len(enc))
			}
		}
		if _, err := DecodeBlock(append(append([]byte(nil), enc...), 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
		over := append([]byte(nil), enc...)
		binary.BigEndian.PutUint32(over[preambleSize:], uint32((len(enc)-preambleSize-4)/minBid+1))
		if _, err := DecodeBlock(over); err == nil {
			t.Fatal("a bid count beyond the remaining bytes was accepted")
		}
	})
}

// TestPreambleEncodingIsWhatHashHashes pins the codec to the consensus
// hash: a block on the wire starts with exactly the bytes Preamble.Hash
// hashes, and those bytes — and so the hash — are what they were before
// the codec existed.
func TestPreambleEncodingIsWhatHashHashes(t *testing.T) {
	block := fuzzBlock(5, 1700000000, 12, 4242, []byte("pin"), []byte("abcdef"), 2, true, 1, []byte("[]"))
	enc, err := AppendBlock(nil, block)
	if err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(enc[:preambleSize]) != block.Preamble.Hash() {
		t.Fatal("the encoded preamble is not what Preamble.Hash hashes")
	}
	const want = "05d3c1e54a02fba6d64fbef42ef896379daab38aa82bca5be4bd531f4b83c33c" // computed before the codec existed
	if got := block.Preamble.Hash(); hex.EncodeToString(got[:]) != want {
		t.Fatalf("Preamble.Hash moved: %x", got)
	}
}
