package sealed

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// fuzzEntropy derives a deterministic entropy stream from a label so
// the fuzzer controls every input bit and failures replay exactly.
type fuzzEntropy struct {
	state [32]byte
	off   int
}

func newFuzzEntropy(seed []byte) *fuzzEntropy {
	return &fuzzEntropy{state: sha256.Sum256(seed)}
}

func (f *fuzzEntropy) Read(p []byte) (int, error) {
	for i := range p {
		if f.off == len(f.state) {
			f.state = sha256.Sum256(f.state[:])
			f.off = 0
		}
		p[i] = f.state[f.off]
		f.off++
	}
	return len(p), nil
}

// FuzzSealedRoundTrip exercises the sealed-bid envelope both ways: any
// payload sealed under a key must open to the identical bytes under
// that key, must NOT open under a different key — not even when the
// body was sealed under that other key behind this key's commitment —
// and must not open after commitment, nonce or ciphertext corruption;
// and Open must never panic, whatever junk arrives as an envelope off
// the wire.
func FuzzSealedRoundTrip(f *testing.F) {
	f.Add([]byte("order-bytes"), []byte("key-seed"), byte(0))
	f.Add([]byte{}, []byte{}, byte(7))
	f.Add(bytes.Repeat([]byte{0xaa}, 300), []byte("long"), byte(255))

	f.Fuzz(func(t *testing.T, payload, keySeed []byte, flip byte) {
		key := sha256.Sum256(append([]byte("k1:"), keySeed...))
		env, err := Seal(payload, key[:], newFuzzEntropy(append([]byte("n:"), keySeed...)))
		if err != nil {
			t.Fatalf("seal failed: %v", err)
		}

		plain, err := env.Open(key[:])
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !bytes.Equal(plain, payload) {
			t.Fatalf("payload drift: sealed %x, opened %x", payload, plain)
		}

		wrong := sha256.Sum256(append([]byte("k2:"), keySeed...))
		if _, err := env.Open(wrong[:]); err == nil {
			t.Fatal("envelope opened under the wrong key")
		}
		if _, err := env.Open(key[:KeySize-1]); err == nil {
			t.Fatal("envelope opened under a short key")
		}

		if !env.CommitsTo(key[:]) || env.CommitsTo(wrong[:]) {
			t.Fatal("the envelope does not commit to exactly its sealing key")
		}

		// Flip one byte anywhere in the envelope (commitment, nonce or
		// ciphertext): the commitment check or GCM must reject it. The
		// commitment gets a flip of its own, flip only reaches it when small.
		for _, at := range []int{int(flip) % len(env), int(flip) % commitSize} {
			corrupt := append(Envelope(nil), env...)
			corrupt[at] ^= 0x01
			if _, err := corrupt.Open(key[:]); err == nil {
				t.Fatalf("envelope corrupted at byte %d opened cleanly", at)
			}
		}

		// Transplant the commitment: a body sealed under one key behind
		// the other key's commitment opens under neither.
		other, err := Seal(payload, wrong[:], newFuzzEntropy(append([]byte("n:"), keySeed...)))
		if err != nil {
			t.Fatalf("seal failed: %v", err)
		}
		crafted := append(append(Envelope(nil), env[:commitSize]...), other[commitSize:]...)
		for _, k := range [][]byte{key[:], wrong[:]} {
			if _, err := crafted.Open(k); err == nil {
				t.Fatal("an envelope committed to one key opened with a body sealed under another")
			}
		}

		// Treat the raw fuzz payload itself as an envelope: it must error
		// or — forged by chance — open only under a key it commits to,
		// never panic.
		if _, err := Envelope(payload).Open(key[:]); err == nil && !Envelope(payload).CommitsTo(key[:]) {
			t.Fatal("an envelope opened under a key it does not commit to")
		}
	})
}
