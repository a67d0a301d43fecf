package experiments

import (
	"fmt"
	"math/rand"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/futures"
	"decloud/internal/resource"
)

// RunOverbookingSweep measures what the two-stage futures market buys in
// a demand-rich edge cloud: aggregate requested load exceeds declared
// capacity (DemandRatio > 1), so capacity — not demand — is the binding
// resource, and every unit a no-show strands is a unit the operator
// cannot resell. The sweep clears the SAME per-round market three ways:
//
//   - spot-only control (ratio 0): every surviving order meets in one
//     truthful spot auction per round — no reservations, no penalties;
//   - futures at ρ = 1.0: forward orders reserve up to declared
//     capacity; buyer no-shows at delivery strand their reservation;
//   - futures at ρ > 1.0: the reservation stage overbooks to ρ× declared
//     capacity, so surviving lower-priority reservations backfill the
//     no-shows' capacity (and surplus survivors are bumped into the spot
//     stage against the penalty credit).
//
// The divergence axis (NoShowRates) varies only the verdicts, never the
// orders, so within a row block all arms clear byte-identical markets.
type OverbookingConfig struct {
	Rounds  int
	Sellers int // forward+spot sellers entering per round
	// DemandRatio is aggregate requested load over declared capacity;
	// > 1 makes capacity the binding resource.
	DemandRatio float64
	// FwdFraction is the probability an order (either side) is submitted
	// to the forward stage rather than natively to spot.
	FwdFraction float64
	// DefaultRate is the seller-side forward default probability.
	DefaultRate float64
	// NoShowRates is the buyer-side divergence axis.
	NoShowRates []float64
	// Ratios are the overbooking ratios to sweep; 0 means the spot-only
	// control arm.
	Ratios      []float64
	Horizon     int
	PenaltyRate float64
	Seed        int64
}

// DefaultOverbookingConfig is the EXPERIMENTS.md regime: demand 1.6×
// declared capacity, 70% of both sides forward, one-round reservation
// horizon.
func DefaultOverbookingConfig() OverbookingConfig {
	return OverbookingConfig{
		Rounds:      8,
		Sellers:     4,
		DemandRatio: 1.6,
		FwdFraction: 0.7,
		DefaultRate: 0.05,
		NoShowRates: []float64{0, 0.15, 0.3},
		Ratios:      []float64{0, 1.0, 1.25, 1.5, 2.0},
		Horizon:     1,
		PenaltyRate: 0.25,
		Seed:        42,
	}
}

// OverbookingPoint is one (divergence, arm) cell of the sweep.
type OverbookingPoint struct {
	NoShowRate float64
	Ratio      float64 // 0 = spot-only control
	// Utilization is realized resource·time delivered (reservations +
	// spot matches) over the declared capacity that materialized, summed
	// across the whole run — the shared denominator for every arm.
	Utilization float64
	Welfare     float64
	Reserved    int64
	Bumps       int64
	NoShows     int64
	Penalties   float64
}

// obRound is one round's generated market, pre-split into stages with
// divergence verdicts attached. The same slices are shared by every arm
// (neither the auction nor the exchange mutates submitted orders).
type obRound struct {
	fwdReqs  []*bidding.Request
	fwdOffs  []*bidding.Offer
	spotReqs []*bidding.Request
	spotOffs []*bidding.Offer
	noShows  map[bidding.OrderID]bool
	defaults map[bidding.OrderID]bool
}

// generateOverbooking builds the run's market once per divergence level.
// Orders come from a market rng seeded only by cfg.Seed — identical
// across divergence levels — while verdicts come from a separate rng
// folded with the level index, so the axis varies divergence and nothing
// else.
func generateOverbooking(cfg OverbookingConfig, level int, noShowRate float64) []obRound {
	market := rand.New(rand.NewSource(cfg.Seed))
	verdict := rand.New(rand.NewSource(cfg.Seed ^ int64(level+1)*0x9e3779b9))
	rounds := make([]obRound, cfg.Rounds)
	for r := range rounds {
		rd := obRound{
			noShows:  make(map[bidding.OrderID]bool),
			defaults: make(map[bidding.OrderID]bool),
		}
		var capacity float64
		for s := 0; s < cfg.Sellers; s++ {
			qty := float64(4 + market.Intn(5)) // 4..8 cores over [0,10)
			unitCost := 0.5 + 0.5*market.Float64()
			off := &bidding.Offer{
				ID:        bidding.OrderID(fmt.Sprintf("ob-o-%d-%d", r, s)),
				Provider:  bidding.ParticipantID(fmt.Sprintf("prov-%d-%d", r, s)),
				Resources: resource.Vector{resource.CPU: qty},
				Start:     0,
				End:       10,
				Bid:       unitCost * qty * 10,
				TrueCost:  unitCost * qty * 10,
			}
			capacity += futures.OfferCapacity(off)
			if market.Float64() < cfg.FwdFraction {
				rd.fwdOffs = append(rd.fwdOffs, off)
				if verdict.Float64() < cfg.DefaultRate {
					rd.defaults[off.ID] = true
				}
			} else {
				rd.spotOffs = append(rd.spotOffs, off)
			}
		}
		for demand, b := 0.0, 0; demand < cfg.DemandRatio*capacity; b++ {
			qty := float64(1 + market.Intn(2)) // 1..2 cores
			dur := int64(5 + market.Intn(6))   // 5..10 time units
			unitValue := 1.5 + 1.5*market.Float64()
			load := qty * float64(dur)
			req := &bidding.Request{
				ID:        bidding.OrderID(fmt.Sprintf("ob-r-%d-%d", r, b)),
				Client:    bidding.ParticipantID(fmt.Sprintf("client-%d-%d", r, b)),
				Resources: resource.Vector{resource.CPU: qty},
				Start:     0,
				End:       10,
				Duration:  dur,
				Bid:       unitValue * load,
				TrueValue: unitValue * load,
			}
			demand += load
			if market.Float64() < cfg.FwdFraction {
				rd.fwdReqs = append(rd.fwdReqs, req)
				if verdict.Float64() < noShowRate {
					rd.noShows[req.ID] = true
				}
			} else {
				rd.spotReqs = append(rd.spotReqs, req)
			}
		}
		rounds[r] = rd
	}
	return rounds
}

// materializedCapacity is the run's shared utilization denominator: the
// full declared capacity of every seller whose capacity materializes —
// all spot offers plus non-defaulting forward offers. It is the same
// number for every arm of one divergence level.
func materializedCapacity(rounds []obRound) float64 {
	var total float64
	for _, rd := range rounds {
		for _, o := range rd.spotOffs {
			total += futures.OfferCapacity(o)
		}
		for _, o := range rd.fwdOffs {
			if !rd.defaults[o.ID] {
				total += futures.OfferCapacity(o)
			}
		}
	}
	return total
}

// runSpotOnly is the single-stage control arm. Divergence is unknown at
// bid time, so every order bids: a buyer that will not show and a seller
// whose capacity will not materialize still win matches, and those
// matches strand at execution — the one-shot market has already cleared
// when the break surfaces, so there is no re-clearing and the allocated
// capacity delivers nothing. (The two-stage arms surface exactly the
// same breaks at the delivery round's START, where overbooked survivors
// backfill no-shows and broken buyers retry in the concurrent spot
// stage — converting execution-time divergence into clearing-time
// divergence is the product the futures stage sells.)
func runSpotOnly(cfg OverbookingConfig, rounds []obRound, level int) OverbookingPoint {
	var used, welfare float64
	for r, rd := range rounds {
		reqs := append(append([]*bidding.Request{}, rd.fwdReqs...), rd.spotReqs...)
		offs := append(append([]*bidding.Offer{}, rd.fwdOffs...), rd.spotOffs...)
		acfg := auction.DefaultConfig()
		acfg.Evidence = []byte(fmt.Sprintf("overbook-%d-spot-%d", level, r))
		out := auction.Run(reqs, offs, acfg)
		for _, m := range out.Matches {
			if rd.noShows[m.Request.ID] || rd.defaults[m.Offer.ID] {
				continue // allocated, never executed: stranded capacity
			}
			used += futures.GrantedLoad(&m)
			welfare += m.Request.TrueValue - m.Fraction*m.Offer.TrueCost
		}
	}
	return OverbookingPoint{
		Utilization: used / materializedCapacity(rounds),
		Welfare:     welfare,
	}
}

// runTwoStage replays the same rounds through the futures exchange at
// one overbooking ratio, then drains the reservation horizon so every
// contract settles.
func runTwoStage(cfg OverbookingConfig, rounds []obRound, level int, ratio float64) OverbookingPoint {
	ex := futures.New(auction.DefaultConfig(), futures.Config{
		OverbookRatio:  ratio,
		PenaltyRate:    cfg.PenaltyRate,
		ReserveHorizon: cfg.Horizon,
	})
	var used, welfare float64
	collect := func(res *futures.RoundResult) {
		if res.Delivery != nil {
			for _, c := range res.Delivery.Delivered {
				used += c.Load
			}
			welfare += res.Delivery.DeliveredWelfare()
		}
		if res.Spot != nil {
			for _, m := range res.Spot.Matches {
				used += futures.GrantedLoad(&m)
			}
			welfare += res.Spot.Welfare()
		}
	}
	for r, rd := range rounds {
		collect(ex.Run(futures.RoundInput{
			FwdRequests:  rd.fwdReqs,
			FwdOffers:    rd.fwdOffs,
			SpotRequests: rd.spotReqs,
			SpotOffers:   rd.spotOffs,
			NoShows:      rd.noShows,
			Defaults:     rd.defaults,
			Evidence:     []byte(fmt.Sprintf("overbook-%d-%g-%d", level, ratio, r)),
		}))
	}
	for d := 0; d < cfg.Horizon; d++ {
		collect(ex.Run(futures.RoundInput{
			Evidence: []byte(fmt.Sprintf("overbook-%d-%g-drain-%d", level, ratio, d)),
		}))
	}
	st := ex.Stats()
	return OverbookingPoint{
		Ratio:       ratio,
		Utilization: used / materializedCapacity(rounds),
		Welfare:     welfare,
		Reserved:    st.Reservations,
		Bumps:       st.Bumps,
		NoShows:     st.NoShows,
		Penalties:   st.PenaltiesCollected,
	}
}

// RunOverbookingSweep runs every (divergence, arm) cell.
func RunOverbookingSweep(cfg OverbookingConfig) []OverbookingPoint {
	if cfg.Rounds == 0 {
		cfg = DefaultOverbookingConfig()
	}
	var points []OverbookingPoint
	for level, rate := range cfg.NoShowRates {
		rounds := generateOverbooking(cfg, level, rate)
		for _, ratio := range cfg.Ratios {
			var p OverbookingPoint
			if ratio == 0 {
				p = runSpotOnly(cfg, rounds, level)
			} else {
				p = runTwoStage(cfg, rounds, level, ratio)
			}
			p.NoShowRate = rate
			points = append(points, p)
		}
	}
	return points
}

// OverbookingTable renders the sweep, one row per (divergence, arm).
func OverbookingTable(points []OverbookingPoint) *Table {
	t := &Table{
		Title: "Overbooking — realized utilization vs ratio under demand divergence (demand-rich regime)",
		Note: "arm 'spot' is the single-stage control; utilization = delivered resource·time / " +
			"materialized declared capacity, identical denominator across arms of one no-show level",
		Header: []string{"noshow_rate", "arm", "utilization", "welfare", "reserved", "bumps", "noshows", "penalties"},
	}
	for _, p := range points {
		arm := "spot"
		if p.Ratio > 0 {
			arm = fmt.Sprintf("rho=%.2f", p.Ratio)
		}
		t.AddRow(p.NoShowRate, arm, p.Utilization, p.Welfare, p.Reserved, p.Bumps, p.NoShows, p.Penalties)
	}
	return t
}
