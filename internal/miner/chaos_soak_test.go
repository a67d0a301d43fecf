package miner

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"decloud/internal/auction"
	"decloud/internal/chaos"
	"decloud/internal/obs"
)

// soakMinerNames matches NewNetwork's naming for a 3-miner network.
var soakMinerNames = []string{"miner-00", "miner-01", "miner-02"}

// soakSchedules reads the sweep width from DECLOUD_CHAOS_SCHEDULES,
// defaulting to def (or short in -short mode).
func soakSchedules(t *testing.T, def, short int) int {
	t.Helper()
	if s := os.Getenv("DECLOUD_CHAOS_SCHEDULES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad DECLOUD_CHAOS_SCHEDULES=%q", s)
		}
		return n
	}
	if testing.Short() {
		return short
	}
	return def
}

// soakMarket seeds a network with a seed-specific tradable market — four
// clients at descending valuations and one provider — and returns the
// participants. Identities and sealing keys come from deterministic
// entropy, so the same seed always submits byte-identical sealed bids.
func soakMarket(t *testing.T, net *Network, seed int64) []*Participant {
	t.Helper()
	var parts []*Participant
	for i := 0; i < 4; i++ {
		p := testParticipant(t, fmt.Sprintf("soak-client-%d-%d", seed, i))
		bid, err := p.SubmitRequest(request(fmt.Sprintf("r-%d-%d", seed, i), 2, float64(10-2*i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SubmitBid(bid); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	prov := testParticipant(t, fmt.Sprintf("soak-prov-%d", seed))
	bid, err := prov.SubmitOffer(offer(fmt.Sprintf("o-%d", seed), 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SubmitBid(bid); err != nil {
		t.Fatal(err)
	}
	return append(parts, prov)
}

// runSoakRound runs one proof-of-stake round of the seed's market under
// the given fault plan and returns the result plus the hash of the full
// head-block bytes (preamble, bids, reveals, allocation). A non-nil reg
// wires full observability through the round — the soak sweep uses this
// to prove metrics cannot perturb the chain bytes.
func runSoakRound(t *testing.T, seed int64, plan *chaos.Plan, reg *obs.Registry) (*RoundResult, [32]byte) {
	t.Helper()
	net := NewNetwork(3, testDifficulty, auction.DefaultConfig())
	net.Consensus = ProofOfStake
	net.Faults = plan
	net.Obs = obs.NewMinerMetrics(reg)
	parts := soakMarket(t, net, seed)
	res, err := net.RunRound(context.Background(), parts)
	if err != nil {
		t.Fatalf("seed %d: round failed: %v", seed, err)
	}
	data, err := json.Marshal(net.Chain().Head())
	if err != nil {
		t.Fatal(err)
	}
	return res, sha256.Sum256(data)
}

// soakMetricInvariants checks the recorded round metrics against the
// round result they describe. Every reveal in the soak market is
// produced, so a retry can only mean the chaos layer lost a delivery
// (reveal_losses ≥ retries), and an excluded bid means the loss repeated
// on every attempt (reveal_losses ≥ excluded × attempts).
func soakMetricInvariants(t *testing.T, reg *obs.Registry, res *RoundResult) {
	t.Helper()
	if got := reg.CounterValue("decloud_miner_rounds_total"); got != 1 {
		t.Fatalf("rounds_total = %d, want 1", got)
	}
	if got := reg.CounterValue("decloud_miner_blocks_accepted_total"); got != 1 {
		t.Fatalf("blocks_accepted_total = %d, want 1", got)
	}
	if got := reg.CounterValue("decloud_miner_slashes_total"); got != 0 {
		t.Fatalf("slashes_total = %d, want 0 — chaos faults must never be treated as Byzantine", got)
	}
	attempts := reg.CounterValue("decloud_miner_reveal_attempts_total")
	if attempts != int64(res.RevealAttempts) {
		t.Fatalf("reveal_attempts_total = %d, want %d", attempts, res.RevealAttempts)
	}
	retries := reg.CounterValue("decloud_miner_reveal_retries_total")
	if retries != attempts-1 {
		t.Fatalf("reveal_retries_total = %d, want attempts-1 = %d", retries, attempts-1)
	}
	excluded := reg.CounterValue("decloud_miner_excluded_bids_total")
	if excluded != int64(len(res.ExcludedDigests)) {
		t.Fatalf("excluded_bids_total = %d, want the deterministic exclusion set size %d",
			excluded, len(res.ExcludedDigests))
	}
	losses := reg.CounterValue("decloud_miner_reveal_losses_total")
	if losses < retries {
		t.Fatalf("reveal_losses_total = %d < retries %d: a retry without a lost delivery", losses, retries)
	}
	if losses < excluded*attempts {
		t.Fatalf("reveal_losses_total = %d < excluded×attempts = %d: an exclusion without repeated losses",
			losses, excluded*attempts)
	}
}

func equalDigests(a, b [][32]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkGoroutineLeaks fails the test if the goroutine count has not
// settled back near its starting point (allowing slack for the runtime's
// own background goroutines).
func checkGoroutineLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
}

// TestChaosSoakDeterministicConvergence sweeps seeded fault schedules —
// reveal drops, delays, duplicates, crash windows — through full
// proof-of-stake rounds and asserts the protocol's two central chaos
// properties:
//
//  1. Determinism: the same seed produces byte-identical chains and
//     identical excluded-bid sets on every run.
//  2. Exclusion equivalence: a chaotic round equals a fault-free round in
//     which exactly the excluded reveals are withheld — faults change
//     *which* bids trade, never *how* the survivors trade.
func TestChaosSoakDeterministicConvergence(t *testing.T) {
	schedules := soakSchedules(t, 50, 12)
	before := runtime.NumGoroutine()
	sawExclusion, sawRetryRecovery := false, false
	for seed := int64(0); seed < int64(schedules); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%02d", seed), func(t *testing.T) {
			plan := func() *chaos.Plan { return chaos.SoakPlan(seed, soakMinerNames) }
			// Run A is uninstrumented, run B carries a full metrics
			// registry: hash equality below therefore also proves the
			// observability layer cannot perturb consensus bytes.
			reg := obs.NewRegistry()
			resA, hashA := runSoakRound(t, seed, plan(), nil)
			resB, hashB := runSoakRound(t, seed, plan(), reg)
			if hashA != hashB {
				t.Fatal("same seed produced different chain bytes")
			}
			if !equalDigests(resA.ExcludedDigests, resB.ExcludedDigests) {
				t.Fatalf("same seed excluded different bids: %x vs %x", resA.ExcludedDigests, resB.ExcludedDigests)
			}
			if resA.RevealAttempts != resB.RevealAttempts {
				t.Fatalf("same seed used %d vs %d reveal attempts", resA.RevealAttempts, resB.RevealAttempts)
			}
			soakMetricInvariants(t, reg, resB)
			if len(resA.ExcludedDigests) > 0 {
				sawExclusion = true
			}
			if resA.RevealAttempts > 1 && len(resA.ExcludedDigests) == 0 {
				sawRetryRecovery = true
			}

			// Replay fault-free, blocking exactly the excluded reveals: the
			// chain must come out byte-identical to the chaotic run.
			blocked := make(map[[32]byte]bool, len(resA.ExcludedDigests))
			for _, d := range resA.ExcludedDigests {
				blocked[d] = true
			}
			_, hashC := runSoakRound(t, seed, &chaos.Plan{BlockedReveals: blocked}, nil)
			if hashC != hashA {
				t.Fatal("chaotic round differs from fault-free round modulo excluded reveals")
			}
		})
	}
	if schedules >= 10 {
		if !sawExclusion {
			t.Error("soak sweep never exercised the exclusion path — widen the fault bands")
		}
		if !sawRetryRecovery {
			t.Error("soak sweep never recovered a lost reveal via retry — widen the fault bands")
		}
	}
	checkGoroutineLeaks(t, before)
}

// TestChaosSoakProofOfWorkConverges runs a smaller sweep under real
// proof-of-work. Block bytes are not reproducible there (the race winner
// and nonce vary), so the assertions are the ones PoW can honor: the
// round converges despite the faults, an outsider miner accepts the
// block by independent re-execution, and the excluded-bid set — which is
// producer-independent by construction — is stable across runs.
func TestChaosSoakProofOfWorkConverges(t *testing.T) {
	schedules := soakSchedules(t, 8, 3)
	before := runtime.NumGoroutine()
	for seed := int64(0); seed < int64(schedules); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%02d", seed), func(t *testing.T) {
			run := func() (*Network, *RoundResult) {
				net := NewNetwork(3, testDifficulty, auction.DefaultConfig())
				net.Faults = chaos.SoakPlan(seed, soakMinerNames)
				parts := soakMarket(t, net, seed)
				res, err := net.RunRound(context.Background(), parts)
				if err != nil {
					t.Fatalf("seed %d: PoW round failed: %v", seed, err)
				}
				return net, res
			}
			netA, resA := run()
			_, resB := run()
			if !equalDigests(resA.ExcludedDigests, resB.ExcludedDigests) {
				t.Fatalf("excluded set depends on the PoW race: %x vs %x",
					resA.ExcludedDigests, resB.ExcludedDigests)
			}
			if err := outsiderVerifyHead(t, netA, auction.DefaultConfig()); err != nil {
				t.Fatalf("outsider rejects the converged block: %v", err)
			}
		})
	}
	checkGoroutineLeaks(t, before)
}
