package sim

import (
	"testing"

	"decloud/internal/auction"
	"decloud/internal/metro"
	"decloud/internal/workload"
)

// TestFastFederatedSimulation: a geo-scattered market federated over 4
// metro exchanges still trades every round, stays deterministic, and
// keeps the welfare ratio against the global greedy benchmark in band.
func TestFastFederatedSimulation(t *testing.T) {
	cfg := Config{
		Mode:     Fast,
		Rounds:   4,
		Metros:   4,
		Workload: workload.Config{Seed: 7, Requests: 60, GeoRadius: 0.6},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	total := 0
	for _, m := range res.Rounds {
		total += m.Matches
		if m.WelfareRatio < 0 || m.WelfareRatio > 1.2 {
			t.Fatalf("welfare ratio out of band: %v", m.WelfareRatio)
		}
	}
	if total == 0 {
		t.Fatal("federated simulation produced no trades at all")
	}

	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rounds {
		if res.Rounds[i].Welfare != again.Rounds[i].Welfare || res.Rounds[i].Matches != again.Rounds[i].Matches {
			t.Fatalf("federated round %d not deterministic", i)
		}
	}
}

// TestFastFederatedCustomLatency: a latency matrix above the spill cap
// must pass through config validation and still simulate.
func TestFastFederatedCustomLatency(t *testing.T) {
	res, err := Run(Config{
		Mode:          Fast,
		Rounds:        3,
		Metros:        2,
		LatencyMatrix: metro.UniformMatrix(2, 25),
		DistancePerMS: 0.004,
		Workload:      workload.Config{Seed: 21, Requests: 40, GeoRadius: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
}

// TestFederatedLedgerClearsOverBooksWithoutIncremental: a carrying
// market is not something the caller has to ask for. Federated ledger
// mode clears over order books whether or not Auction.Incremental is
// set.
func TestFederatedLedgerClearsOverBooksWithoutIncremental(t *testing.T) {
	cfg := Config{
		Mode: Ledger, Rounds: 2, Metros: 2, Miners: 1,
		Workload: workload.Config{Seed: 13, Requests: 25, GeoRadius: 0.6},
	}
	res, err := Run(cfg) // ends with the conservation and no-double-settle audits
	if err != nil {
		t.Fatalf("federated ledger without Auction.Incremental: %v", err)
	}
	matches := 0
	for _, m := range res.Rounds {
		matches += m.Matches
	}
	if matches == 0 {
		t.Fatal("federated ledger without Auction.Incremental produced no trades")
	}
}

// TestLedgerFederatedSimulation pushes a small geo market through two
// full miner networks joined by spill: blocks must be produced, trades
// agreed, and the conservation and cross-chain no-double-settle audits
// (run by Run itself at teardown) must hold.
func TestLedgerFederatedSimulation(t *testing.T) {
	acfg := auction.DefaultConfig()
	acfg.Incremental = true
	res, err := Run(Config{
		Mode:       Ledger,
		Rounds:     2,
		Metros:     2,
		Miners:     2,
		Difficulty: 8,
		Auction:    acfg,
		Workload:   workload.Config{Seed: 13, Requests: 25, GeoRadius: 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	matches, agreed := 0, 0
	for _, m := range res.Rounds {
		matches += m.Matches
		agreed += m.Agreed
	}
	if matches == 0 {
		t.Fatal("federated ledger simulation produced no trades")
	}
	if agreed != matches {
		t.Fatalf("agreed = %d, matches = %d", agreed, matches)
	}
	if len(res.Reputation) == 0 {
		t.Fatal("federated ledger run recorded no reputations")
	}
}
