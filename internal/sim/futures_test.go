package sim

import (
	"testing"

	"decloud/internal/auction"
	"decloud/internal/futures"
	"decloud/internal/obs"
	"decloud/internal/workload"
)

func futuresConfig(mode Mode, overbook float64) Config {
	cfg := Config{
		Mode:         mode,
		Rounds:       6,
		Workload:     workload.Config{Seed: 21, Requests: 60},
		FuturesSplit: 0.5,
		DemandShock:  0.3,
		SupplyShock:  0.2,
	}
	cfg.Auction = auction.DefaultConfig()
	cfg.Futures = futures.Config{
		OverbookRatio:  overbook,
		PenaltyRate:    0.2,
		ReserveHorizon: 2,
	}
	return cfg
}

// TestFastFuturesSimulation: a fast-mode two-stage run reserves, delivers,
// and keeps the exchange's conservation identity (checked inside Run).
func TestFastFuturesSimulation(t *testing.T) {
	res, err := Run(futuresConfig(Fast, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	var reserved, delivered, noShows int
	var util float64
	for _, m := range res.Rounds {
		reserved += m.Reserved
		delivered += m.DeliveredFut
		noShows += m.FutNoShows
		util += m.Utilization
	}
	if reserved == 0 {
		t.Fatal("no forward contracts made")
	}
	if delivered == 0 {
		t.Fatal("no reservations delivered")
	}
	if noShows == 0 {
		t.Fatal("no no-shows despite DemandShock 0.3")
	}
	if util <= 0 {
		t.Fatal("utilization never positive")
	}
}

// TestFastFuturesDeterministic: two identical runs agree round for round
// on every futures column.
func TestFastFuturesDeterministic(t *testing.T) {
	cfg := futuresConfig(Fast, 1.5)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rounds {
		am, bm := a.Rounds[i], b.Rounds[i]
		if am.Reserved != bm.Reserved || am.DeliveredFut != bm.DeliveredFut ||
			am.Utilization != bm.Utilization || am.PenaltyFlow != bm.PenaltyFlow ||
			am.Welfare != bm.Welfare {
			t.Fatalf("round %d differs: %+v vs %+v", i, am, bm)
		}
	}
}

// TestFastControlArm: FuturesSplit without Futures runs the
// spot-only control arm — no reservations, utilization still measured,
// failing forward orders withheld from the market.
func TestFastControlArm(t *testing.T) {
	cfg := futuresConfig(Fast, 1.5)
	cfg.Futures = futures.Config{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawUtil := false
	for _, m := range res.Rounds {
		if m.Reserved != 0 || m.DeliveredFut != 0 || m.PenaltyFlow != 0 {
			t.Fatalf("control arm produced futures activity: %+v", m)
		}
		if m.Utilization > 0 {
			sawUtil = true
		}
		if m.Requests != 60 {
			t.Fatalf("round %d: Requests must count the full submission set, got %d", m.Round, m.Requests)
		}
	}
	if !sawUtil {
		t.Fatal("control arm never measured utilization")
	}
}

// TestLedgerFuturesSimulation: the two-stage market on the full
// protocol — reservations settle through the contract registry, so
// no-shows and seller defaults decay reputation below the accept-only
// baseline of 1.0.
func TestLedgerFuturesSimulation(t *testing.T) {
	cfg := futuresConfig(Ledger, 1.5)
	cfg.Rounds = 5
	cfg.Workload.Requests = 40
	reg := obs.NewRegistry()
	cfg.Obs = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var delivered, noShows, defaults, agreed, denied int
	for _, m := range res.Rounds {
		delivered += m.DeliveredFut
		noShows += m.FutNoShows
		defaults += m.SellerDefaults
		agreed += m.Agreed
		denied += m.Denied
	}
	if delivered == 0 {
		t.Fatal("no reservations delivered on the ledger path")
	}
	if noShows+defaults == 0 {
		t.Fatal("no divergence events despite shocks")
	}
	if denied == 0 {
		t.Fatal("futures breaks did not flow through the contract deny path")
	}
	if agreed == 0 {
		t.Fatal("no agreements settled")
	}
	// Breaks must have decayed someone's standing.
	sawPenalized := false
	for _, ps := range res.Reputation {
		if ps.Score < 1.0 {
			sawPenalized = true
			break
		}
	}
	if !sawPenalized {
		t.Fatal("no participant's reputation decayed despite futures breaks")
	}
	if reg.CounterValue("decloud_futures_rounds_total") != int64(cfg.Rounds) {
		t.Fatalf("futures obs rounds = %d, want %d",
			reg.CounterValue("decloud_futures_rounds_total"), cfg.Rounds)
	}
	if reg.CounterValue("decloud_futures_delivered_total") == 0 {
		t.Fatal("futures obs delivered counter not wired")
	}
}

// TestFuturesConfigRejections: the futures market refuses the config
// combinations it cannot compose with.
func TestFuturesConfigRejections(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"metros":      func(c *Config) { c.Metros = 2 },
		"resubmit":    func(c *Config) { c.Resubmit = true },
		"incremental": func(c *Config) { c.Auction.Incremental = true },
	} {
		cfg := futuresConfig(Fast, 1.2)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s: expected a config rejection", name)
		}
	}
}
