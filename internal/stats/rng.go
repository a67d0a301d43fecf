// Package stats derives deterministic randomness from a block's evidence.
// The mechanism's randomized exclusion (Algorithm 4) must be verifiable:
// every miner has to reproduce it exactly from public data. The paper
// uses "evidence of a block as a random seed so that randomization is
// also verifiable" (Section IV-F).
package stats

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"slices"
)

// seedFromBytes hashes arbitrary evidence (e.g. a block's proof-of-work)
// into a 64-bit PRNG seed.
func seedFromBytes(evidence []byte) int64 {
	sum := sha256.Sum256(evidence)
	return int64(binary.BigEndian.Uint64(sum[:8]))
}

// newRand returns a deterministic *rand.Rand derived from evidence bytes.
// Two verifiers with the same evidence obtain identical streams.
func newRand(evidence []byte) *rand.Rand {
	return rand.New(rand.NewSource(seedFromBytes(evidence)))
}

// SubRand derives an independent deterministic generator for a named
// sub-purpose (e.g. one per mini-auction) so that consuming randomness in
// one place does not perturb another.
func SubRand(evidence []byte, label string) *rand.Rand {
	h := sha256.New()
	h.Write(evidence)
	h.Write([]byte{0})
	h.Write([]byte(label))
	return newRand(h.Sum(nil))
}

// KeyedOrder returns a permutation of [0, len(ids)) where index i sorts
// by SHA-256(evidence ‖ label ‖ ids[i]). The ordering depends only on the
// evidence and the element *identities* — never on their positions in the
// input — so a participant cannot influence its draw by changing a bid
// that reorders the input slice. This is what makes the mechanism's
// randomized exclusion strategyproof.
func KeyedOrder(evidence []byte, label string, ids []string) []int {
	// The sort moves a key's first 8 bytes, read big-endian so that they
	// compare as the bytes do, and reads the rest only on a tie.
	type keyed struct {
		head uint64
		idx  int
	}
	ks, keys := make([]keyed, len(ids)), make([][32]byte, len(ids))
	// One buffer holds evidence ‖ 0 ‖ label ‖ 0, and each id in turn
	// after it: one Sum256 per id, no hasher or digest slice.
	buf := make([]byte, 0, 256) // on the stack unless the prefix is longer
	buf = append(buf, evidence...)
	buf = append(buf, 0)
	buf = append(buf, label...)
	buf = append(buf, 0)
	prefix := len(buf)
	for i, id := range ids {
		buf = append(buf[:prefix], id...)
		keys[i] = sha256.Sum256(buf)
		ks[i] = keyed{head: binary.BigEndian.Uint64(keys[i][:8]), idx: i}
	}
	// Keys are unique whenever ids are (they are order IDs / cluster
	// keys, unique per block); the idx tiebreak only fires on duplicate
	// ids and keeps even that case deterministic.
	slices.SortFunc(ks, func(a, b keyed) int {
		if a.head != b.head {
			return cmp.Compare(a.head, b.head)
		}
		if c := bytes.Compare(keys[a.idx][8:], keys[b.idx][8:]); c != 0 {
			return c
		}
		return a.idx - b.idx
	})
	out := make([]int, len(ks))
	for i, k := range ks {
		out[i] = k.idx
	}
	return out
}
