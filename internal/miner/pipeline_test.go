package miner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/book"
	"decloud/internal/chaos"
	"decloud/internal/ledger"
	"decloud/internal/obs"
)

// pipelineRounds is the epoch count each pipelined schedule runs.
const pipelineRounds = 6

// seqRound mirrors what PipelinedRound records, produced by a plain
// sequential RunRound loop — the oracle the pipeline is compared to.
type seqRound struct {
	winner   string
	errText  string
	excluded [][32]byte
	attempts int
}

func roundSnapshot(res *RoundResult, err error) seqRound {
	s := seqRound{}
	if err != nil {
		s.errText = err.Error()
	}
	if res != nil {
		s.winner = res.Winner
		s.excluded = res.ExcludedDigests
		s.attempts = res.RevealAttempts
	}
	return s
}

// chainDigests marshals every block of the chain to canonical JSON — the
// bytes a verifying peer would compare.
func chainDigests(t *testing.T, net *Network) []string {
	t.Helper()
	var out []string
	for i := 0; i < net.Chain().Len(); i++ {
		data, err := json.Marshal(net.Chain().BlockAt(i))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(data))
	}
	return out
}

// tamperFirstByte corrupts every allocation the target miner produces —
// a persistent Byzantine producer.
func tamperFirstByte(target string) func(string, *ledger.Body) {
	return func(producer string, b *ledger.Body) {
		if producer == target && len(b.Allocation) > 0 {
			b.Allocation[0] ^= 0xff
		}
	}
}

// tamperOnce corrupts only the first body produced across the whole run.
func tamperOnce(flag *bool) func(string, *ledger.Body) {
	return func(producer string, b *ledger.Body) {
		if !*flag && len(b.Allocation) > 0 {
			*flag = true
			b.Allocation[0] ^= 0xff
		}
	}
}

// newPipelineTestNet builds one PoS soak network; when tamper is set,
// every body produced by miner-00 is corrupted, forcing the Byzantine
// re-election loop inside the commit stage.
func newPipelineTestNet(seed int64, tamper bool, cfg auction.Config) *Network {
	net := NewNetwork(3, testDifficulty, cfg)
	net.Consensus = ProofOfStake
	net.Faults = chaos.SoakPlan(seed, soakMinerNames)
	if tamper {
		net.TamperBody = tamperFirstByte("miner-00")
	}
	return net
}

// TestPipelinedEquivalenceSoak sweeps chaos schedules through multi-round
// markets twice — once as a sequential RunRound loop, once through the
// two-stage epoch pipeline — and asserts the chains are byte-identical
// block for block and every round reports the same (winner, error,
// excluded set, attempts). Pipelining may only change wall clock, never
// bytes: this is the pipeline's acceptance property. Every schedule
// runs from scratch and over the order book, so the block executor's
// preview branch meets chaos, tampering and re-election too.
func TestPipelinedEquivalenceSoak(t *testing.T) {
	schedules := soakSchedules(t, 14, 5)
	before := runtime.NumGoroutine()
	for i := 0; i < 2*schedules; i++ {
		seed, cfg, mode := int64(i/2), auction.DefaultConfig(), "scratch"
		if i%2 == 1 {
			cfg, mode = incrementalConfig(), "incremental"
		}
		t.Run(fmt.Sprintf("seed-%02d/%s", seed, mode), func(t *testing.T) {
			tamper := seed%3 == 0

			seqNet := newPipelineTestNet(seed, tamper, cfg)
			var seq []seqRound
			for r := 0; r < pipelineRounds; r++ {
				parts := soakMarket(t, seqNet, seed*100+int64(r))
				res, err := seqNet.RunRound(context.Background(), parts)
				seq = append(seq, roundSnapshot(res, err))
			}

			pipNet := newPipelineTestNet(seed, tamper, cfg)
			rounds, err := pipNet.RunPipelined(context.Background(), pipelineRounds, func(r int) []*Participant {
				return soakMarket(t, pipNet, seed*100+int64(r))
			})
			if err != nil {
				t.Fatalf("pipelined run failed outright: %v", err)
			}
			pipNet.Close()

			if len(rounds) != len(seq) {
				t.Fatalf("pipeline returned %d rounds, sequential ran %d", len(rounds), len(seq))
			}
			for r := range seq {
				got := roundSnapshot(rounds[r].Result, rounds[r].Err)
				if got.winner != seq[r].winner {
					t.Fatalf("round %d: winner %q, sequential elected %q", r, got.winner, seq[r].winner)
				}
				if got.errText != seq[r].errText {
					t.Fatalf("round %d: error %q, sequential %q", r, got.errText, seq[r].errText)
				}
				if !equalDigests(got.excluded, seq[r].excluded) {
					t.Fatalf("round %d: pipelined excluded %x, sequential %x", r, got.excluded, seq[r].excluded)
				}
				if got.attempts != seq[r].attempts {
					t.Fatalf("round %d: %d reveal attempts, sequential %d", r, got.attempts, seq[r].attempts)
				}
			}
			seqChain, pipChain := chainDigests(t, seqNet), chainDigests(t, pipNet)
			if len(seqChain) != len(pipChain) {
				t.Fatalf("chain lengths diverge: %d vs %d", len(seqChain), len(pipChain))
			}
			for i := range seqChain {
				if seqChain[i] != pipChain[i] {
					t.Fatalf("block %d bytes diverge between sequential and pipelined runs", i)
				}
			}
			// Cross-verification: an outsider accepts the pipelined head by
			// independent re-execution.
			if pipNet.Chain().Head() != nil {
				if err := outsiderVerifyHead(t, pipNet, cfg); err != nil {
					t.Fatalf("outsider rejects the pipelined head: %v", err)
				}
			}
		})
	}
	checkGoroutineLeaks(t, before)
}

// outsiderVerifyHead re-executes the chain head on a miner that took no
// part in producing it. An incremental outsider first replays the chain
// below the head into a book of its own — the state every verifier
// holds when the head arrives.
func outsiderVerifyHead(t *testing.T, net *Network, cfg auction.Config) error {
	t.Helper()
	cfg.Reputation = net.Contracts().Reputation()
	outsider := &Miner{Name: "outsider", Difficulty: testDifficulty, AuctionCfg: cfg}
	chain := net.Chain()
	if cfg.Incremental {
		outsider.Book = book.New(cfg)
		below := ledger.NewChain()
		for h := 0; h < chain.Len()-1; h++ {
			if err := below.Append(chain.BlockAt(h), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := outsider.SyncBook(below); err != nil {
			t.Fatal(err)
		}
	}
	return outsider.VerifyBlock(chain.Head())
}

// TestPipelinedFlushOnReElection forces a mid-pipeline re-election under
// proof-of-work: round 0's first body is corrupted, the verifiers reject
// it, and the honest re-mine lands in a different nonce region (the
// original producer is barred and regions are per-miner), so the head
// hash no longer matches the parent round 1 speculated on. The pipeline
// must flush the in-flight stage, redo it against the real head, and
// still converge to a fully linked chain.
func TestPipelinedFlushOnReElection(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	net := NewNetwork(3, testDifficulty, auction.DefaultConfig())
	net.Obs = obs.NewMinerMetrics(reg)
	var tampered bool
	net.TamperBody = tamperOnce(&tampered)

	rounds, err := net.RunPipelined(context.Background(), 3, func(r int) []*Participant {
		return soakMarket(t, net, 7000+int64(r))
	})
	if err != nil {
		t.Fatalf("pipelined PoW run failed: %v", err)
	}
	net.Close()

	for r, pr := range rounds {
		if pr.Err != nil {
			t.Fatalf("round %d failed: %v", r, pr.Err)
		}
	}
	if net.Chain().Len() != 3 {
		t.Fatalf("chain holds %d blocks, want 3", net.Chain().Len())
	}
	if rounds[0].Result == nil || len(rounds[0].Result.Offenders) == 0 {
		t.Fatal("round 0 never saw the Byzantine rejection the test injected")
	}
	if got := reg.CounterValue("decloud_miner_pipeline_flushes_total"); got < 1 {
		t.Fatalf("pipeline_flushes_total = %d: the re-mined parent must have flushed round 1's speculation", got)
	}
	// Linkage: each block references its predecessor's preamble hash.
	for i := 1; i < net.Chain().Len(); i++ {
		prev := net.Chain().BlockAt(i - 1).Preamble.Hash()
		if net.Chain().BlockAt(i).Preamble.PrevHash != prev {
			t.Fatalf("block %d does not link to its parent", i)
		}
	}
	checkGoroutineLeaks(t, before)
}

// TestPipelinedEmptyRounds: rounds whose feed submits nothing record
// ErrEmptyMempool and the pipeline keeps going — matching a sequential
// driver that logs the error and continues.
func TestPipelinedEmptyRounds(t *testing.T) {
	net := NewNetwork(3, testDifficulty, auction.DefaultConfig())
	net.Consensus = ProofOfStake
	rounds, err := net.RunPipelined(context.Background(), 3, func(r int) []*Participant {
		if r == 1 {
			return nil // submit nothing
		}
		return soakMarket(t, net, 8800+int64(r))
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Close()
	if !errors.Is(rounds[1].Err, ErrEmptyMempool) {
		t.Fatalf("round 1 error = %v, want ErrEmptyMempool", rounds[1].Err)
	}
	if rounds[0].Err != nil || rounds[2].Err != nil {
		t.Fatalf("non-empty rounds failed: %v, %v", rounds[0].Err, rounds[2].Err)
	}
	if net.Chain().Len() != 2 {
		t.Fatalf("chain holds %d blocks, want 2", net.Chain().Len())
	}
}
