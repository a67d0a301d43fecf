package experiments

import (
	"fmt"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/workload"
)

// RunMarketDynamics simulates the multi-round market of Section VI: the
// system "will have an online appearance" and participants react to
// realized outcomes. Supply is elastic with a directly observable rule —
// a provider that sold capacity in its last active round stays in the
// market; one that sat idle withdraws and only re-tests the market
// periodically (the paper's historical-price feedback, expressed through
// quantities rather than a price scale). Demand regenerates each round.
//
// The question is stability: does participation settle at the level
// demand can support, and does satisfaction hold while idle capacity
// leaves?
type DynamicsConfig struct {
	Rounds   int
	Requests int
	// Pool is the total number of candidate providers.
	Pool int
	// RetestEvery makes an idle provider re-enter every k-th round
	// (staggered by provider index) to probe for new demand.
	RetestEvery int
	Seed        int64
}

// DefaultDynamicsConfig returns a laptop-scale trajectory with headroom:
// the pool is larger than demand needs, so the idle tail must exit.
func DefaultDynamicsConfig() DynamicsConfig {
	return DynamicsConfig{Rounds: 20, Requests: 120, Pool: 100, RetestEvery: 4, Seed: 42}
}

// DynamicsPoint is one round of the trajectory.
type DynamicsPoint struct {
	Round        int
	Price        float64 // mean realized unit price × 10⁶ (0 if no trades)
	Active       int     // providers that entered this round
	Matches      int
	Satisfaction float64
	Welfare      float64
}

// RunMarketDynamics runs the trajectory.
func RunMarketDynamics(cfg DynamicsConfig) []DynamicsPoint {
	if cfg.Rounds == 0 {
		cfg = DefaultDynamicsConfig()
	}
	if cfg.RetestEvery <= 0 {
		cfg.RetestEvery = 4
	}
	pool := workload.Generate(workload.Config{
		Seed: cfg.Seed, Requests: 1, Providers: cfg.Pool,
	}).Offers

	// wantsIn[j]: whether provider j participates this round.
	wantsIn := make([]bool, len(pool))
	for j := range wantsIn {
		wantsIn[j] = true
	}

	var points []DynamicsPoint
	for round := 0; round < cfg.Rounds; round++ {
		var active []*bidding.Offer
		var activeIdx []int
		for j, in := range wantsIn {
			if !in && (round+j)%cfg.RetestEvery == 0 {
				in = true // periodic market probe by an idle provider
			}
			if in {
				active = append(active, pool[j])
				activeIdx = append(activeIdx, j)
			}
		}

		demand := workload.Generate(workload.Config{
			Seed: cfg.Seed + int64(round+1)*7919, Requests: cfg.Requests, Providers: 2,
		}).Requests

		acfg := auction.DefaultConfig()
		acfg.Evidence = []byte(fmt.Sprintf("dynamics-%d", round))
		out := auction.Run(demand, active, acfg)

		var prices []float64
		for _, m := range out.Matches {
			prices = append(prices, m.UnitPrice)
		}
		points = append(points, DynamicsPoint{
			Round:        round,
			Price:        Mean(prices) * 1e6,
			Active:       len(active),
			Matches:      len(out.Matches),
			Satisfaction: out.Satisfaction(len(demand)),
			Welfare:      out.Welfare(),
		})

		// Feedback: sellers with revenue stay; idle ones withdraw.
		for i, j := range activeIdx {
			wantsIn[j] = out.RevenueFor(active[i].ID) > 0
		}
	}
	return points
}

// DynamicsTable renders the trajectory.
func DynamicsTable(points []DynamicsPoint) *Table {
	t := &Table{
		Title:  "Dynamics — elastic supply over rounds (sold → stay, idle → withdraw)",
		Note:   "price = mean realized unit price ×1e6; idle providers re-test the market periodically",
		Header: []string{"round", "price", "active_providers", "matches", "satisfaction", "welfare"},
	}
	for _, p := range points {
		t.AddRow(p.Round, p.Price, p.Active, p.Matches, p.Satisfaction, p.Welfare)
	}
	return t
}
