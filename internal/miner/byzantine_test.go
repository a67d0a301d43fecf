package miner

import (
	"context"
	"errors"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/chaos"
	"decloud/internal/ledger"
	"decloud/internal/obs"
)

// crashAll builds a plan that keeps every named miner crashed for the
// first rounds of the network's logical clock.
func crashAll(t *testing.T, names []string) *chaos.Plan {
	t.Helper()
	p := &chaos.Plan{}
	for _, name := range names {
		p.Crashes = append(p.Crashes, chaos.Crash{
			Window: chaos.Window{From: 0, Until: 10},
			Node:   name,
		})
	}
	return p
}

// TestByzantineProducerMatrix exercises graceful degradation against a
// Byzantine block producer across every Consensus × VerifyPolicy ×
// {from-scratch, order-book} combination and two attack bodies:
//
//   - corrupt-body: the allocation bytes are mutated without re-hashing,
//     so Block.Validate fails structurally under any policy;
//   - forged-allocation: the allocation is re-encoded with an inflated
//     payment and a matching hash, so only independent re-execution by
//     the verifiers (full or challenge-escalated sampling) catches it.
//
// In every cell the round must converge on an honest producer, slash the
// offender exactly once, keep it off the reward, and leave a single
// verified block on the chain.
func TestByzantineProducerMatrix(t *testing.T) {
	attacks := []struct {
		name   string
		mutate func(t *testing.T, b *ledger.Body)
	}{
		{"corrupt-body", func(t *testing.T, b *ledger.Body) {
			b.Allocation = append(b.Allocation, ' ')
		}},
		{"forged-allocation", func(t *testing.T, b *ledger.Body) {
			records, err := ledger.DecodeAllocation(b.Allocation)
			if err != nil {
				t.Fatal(err)
			}
			if len(records) == 0 {
				t.Fatal("no allocation to forge")
			}
			records[0].Payment *= 10
			forged, err := encodeRecords(records)
			if err != nil {
				t.Fatal(err)
			}
			*b = *ledger.NewBody(b.Reveals, forged)
		}},
	}
	consensuses := []struct {
		name string
		c    Consensus
	}{
		{"pow", ProofOfWork},
		{"pos", ProofOfStake},
	}
	policies := []struct {
		name string
		p    VerifyPolicy
		prob float64
	}{
		{"verify-all", VerifyAll, 0},
		{"sampled", VerifySampled, 1},
	}

	markets := []struct {
		name string
		cfg  auction.Config
	}{
		{"scratch", auction.DefaultConfig()},
		{"incremental", incrementalConfig()},
	}

	for _, cons := range consensuses {
		for _, pol := range policies {
			for _, atk := range attacks {
				for _, mkt := range markets {
					t.Run(cons.name+"/"+pol.name+"/"+atk.name+"/"+mkt.name, func(t *testing.T) {
						net := NewNetwork(3, testDifficulty, mkt.cfg)
						net.Consensus = cons.c
						net.Policy = pol.p
						net.SampleProb = pol.prob
						reg := obs.NewRegistry()
						net.Obs = obs.NewMinerMetrics(reg)
						// The first producer to win the round turns Byzantine;
						// re-elected producers stay honest.
						var offender string
						net.TamperBody = func(producer string, b *ledger.Body) {
							if offender == "" {
								offender = producer
							}
							if producer == offender {
								atk.mutate(t, b)
							}
						}
						parts := marketRound(t, net)
						res, err := net.RunRound(context.Background(), parts)
						if err != nil {
							t.Fatalf("round did not converge past the Byzantine producer: %v", err)
						}
						if res.Winner == offender {
							t.Fatalf("Byzantine producer %s won the round", offender)
						}
						if len(res.Offenders) != 1 || res.Offenders[0] != offender {
							t.Fatalf("Offenders = %v, want [%s]", res.Offenders, offender)
						}
						if got := net.Slashed[offender]; got != 1 {
							t.Fatalf("offender slashed %d times, want exactly 1", got)
						}
						if got := reg.CounterValue("decloud_miner_slashes_total"); got != 1 {
							t.Fatalf("slashes_total metric = %d, want exactly 1", got)
						}
						if got := reg.CounterValue("decloud_miner_rejected_bids_total"); got != 0 {
							t.Fatalf("rejected_bids_total = %d on an honest re-election, want 0", got)
						}
						if got := net.Balances[offender]; got != 0 {
							t.Fatalf("offender earned %v despite rejection", got)
						}
						if net.Chain().Len() != 1 {
							t.Fatalf("chain length %d, want 1", net.Chain().Len())
						}
						if len(res.Outcome.Matches) == 0 {
							t.Fatal("converged round produced no trades")
						}
						if pol.p == VerifySampled && atk.name == "forged-allocation" && len(net.Challenges) == 0 {
							t.Fatal("sampled verifiers raised no challenge against a forged allocation")
						}
					})
				}
			}
		}
	}
}

// TestStalePreambleReplayRejected replays an already-final block into the
// chain: linkage validation must reject it without touching the replica.
func TestStalePreambleReplayRejected(t *testing.T) {
	net := NewNetwork(3, testDifficulty, auction.DefaultConfig())
	parts := marketRound(t, net)
	if _, err := net.RunRound(context.Background(), parts); err != nil {
		t.Fatal(err)
	}
	head := net.Chain().Head()
	if err := net.Chain().Append(head, nil); !errors.Is(err, ledger.ErrBadLinkage) {
		t.Fatalf("replayed block: err = %v, want ErrBadLinkage", err)
	}
	if net.Chain().Len() != 1 {
		t.Fatalf("replay changed the chain: length %d", net.Chain().Len())
	}
}

// TestAllMinersCrashedFailsCleanly pins the error path when the fault
// plan takes every miner offline for the round.
func TestAllMinersCrashedFailsCleanly(t *testing.T) {
	net := NewNetwork(2, testDifficulty, auction.DefaultConfig())
	net.Faults = crashAll(t, []string{"miner-00", "miner-01"})
	parts := marketRound(t, net)
	_, err := net.RunRound(context.Background(), parts)
	if !errors.Is(err, ErrAllCrashed) {
		t.Fatalf("err = %v, want ErrAllCrashed", err)
	}
	if net.Chain().Len() != 0 {
		t.Fatal("crashed network appended a block")
	}
}
