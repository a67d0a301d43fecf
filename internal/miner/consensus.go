package miner

import (
	"fmt"
	"sort"

	"decloud/internal/stats"
)

// Consensus selects how a round's block producer is chosen.
type Consensus int

// Consensus modes.
const (
	// ProofOfWork races all miners on the PoW puzzle (the default, as in
	// the paper's base design).
	ProofOfWork Consensus = iota
	// ProofOfStake elects a stake-weighted leader deterministically from
	// the previous block hash — the "green" alternative the paper's
	// Section VI anticipates (Casper/Sawtooth). Blocks carry difficulty 0.
	//
	// Caveat (documented, inherent to simple chained PoS): without a VRF
	// the leader is predictable one round ahead, and the block's
	// randomness is not grind-proof the way PoW evidence is.
	ProofOfStake
)

// String names the consensus mode for logs and round traces.
func (c Consensus) String() string {
	switch c {
	case ProofOfStake:
		return "pos"
	default:
		return "pow"
	}
}

// VerifyPolicy selects how non-producing miners check a block.
type VerifyPolicy int

// Verification policies.
const (
	// VerifyAll has every other miner re-execute every block (the
	// paper's base protocol).
	VerifyAll VerifyPolicy = iota
	// VerifySampled has each miner re-execute with probability
	// SampleProb, drawn deterministically from (block evidence, miner
	// name). If any sampler detects a mismatch it raises a challenge and
	// the whole network verifies — TrueBit's answer to the verifier's
	// dilemma that Section VI proposes adopting. With SampleProb 0 the
	// dilemma is realized: nobody checks, and a cheating producer wins.
	VerifySampled
)

// SelectLeader picks the proof-of-stake leader: a deterministic
// stake-weighted draw seeded by the previous block hash and height, so
// every node computes the same leader. Stakes must be positive; zero or
// missing stakes mean equal weight.
func SelectLeader(prevHash [32]byte, height int64, names []string, stakes map[string]float64) int {
	if len(names) == 0 {
		return -1
	}
	ordered := append([]string(nil), names...)
	sort.Strings(ordered)
	weights := make([]float64, len(ordered))
	var total float64
	for i, name := range ordered {
		w := stakes[name]
		if w <= 0 {
			w = 1
		}
		weights[i] = w
		total += w
	}
	seed := append(append([]byte{}, prevHash[:]...), byte(height), byte(height>>8), byte(height>>16))
	rnd := stats.SubRand(seed, "pos-leader")
	x := rnd.Float64() * total
	choice := ordered[len(ordered)-1]
	for i, w := range weights {
		if x < w {
			choice = ordered[i]
			break
		}
		x -= w
	}
	for i, name := range names {
		if name == choice {
			return i
		}
	}
	return 0
}

// DefaultBlockReward is the cryptotoken emission credited to the producer
// of every accepted block — the paper's miner incentive ("miners
// responsible for the algorithm execution are rewarded by cryptotokens
// emission", Section IV-C), which is why the auction itself can be
// strongly budget balanced.
const DefaultBlockReward = 1.0

// Challenge records a sampled verifier's dispute of a block.
type Challenge struct {
	Height     int64
	Challenger string
	Err        string
}

func (c Challenge) String() string {
	return fmt.Sprintf("block %d challenged by %s: %s", c.Height, c.Challenger, c.Err)
}

// shouldSample decides deterministically whether a miner samples a block
// for verification: keyed by evidence and the miner's name so that no
// miner can predict another's draw, yet the decision is reproducible in
// tests.
func shouldSample(evidence []byte, name string, prob float64) bool {
	if prob >= 1 {
		return true
	}
	if prob <= 0 {
		return false
	}
	return stats.SubRand(evidence, "sample/"+name).Float64() < prob
}
