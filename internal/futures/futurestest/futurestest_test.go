package futurestest

import (
	"fmt"
	"math"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/futures"
)

// enabled is the harness's standard treatment: overbooked reservation
// stage, two-round horizon.
var enabled = futures.Config{OverbookRatio: 1.5, PenaltyRate: 0.2, ReserveHorizon: 2}

func spotConfig(workers int) auction.Config {
	cfg := auction.DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// TestDisabledIdentityAcrossSeeds is the harness's core guarantee: with
// OverbookRatio=1.0 and ReserveHorizon=0 the exchange is byte-identical
// to plain auction.Run across 50 randomized markets, at worker counts
// {1,4} (run under -race in CI).
func TestDisabledIdentityAcrossSeeds(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		tr := NewTrace(seed, 36, 3)
		for _, workers := range []int{1, 4} {
			cfg := auction.DefaultConfig()
			cfg.Workers = workers
			if err := CheckDisabledIdentity(cfg, tr); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
		}
	}
}

// TestReplayDeterminism: the worker count of the spot stage must not
// move a single byte of the exchange's observable behavior —
// outcomes, chain head, conservation counters, or live sets.
func TestReplayDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 11, 27} {
		tr := NewTrace(seed, 48, 4)
		base, err := Replay(spotConfig(1), enabled, tr, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, workers := range []int{1, 4} {
			got, err := Replay(spotConfig(workers), enabled, tr, nil)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if err := base.Equal(got); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
		}
	}
}

// TestReplayConservesAndSettles: over a seed sweep the enabled exchange
// exercises every lifecycle branch, conserves orders (checked per round
// inside Replay), settles everything by the end of the drain, and keeps
// the penalty budget balanced to the cent.
func TestReplayConservesAndSettles(t *testing.T) {
	var agg futures.Stats
	for seed := int64(0); seed < 12; seed++ {
		tr := NewTrace(seed, 48, 4)
		res, err := Replay(spotConfig(1), enabled, tr, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.LiveRequests != 0 || res.LiveOffers != 0 {
			t.Fatalf("seed %d: drain left live orders: %d requests, %d offers",
				seed, res.LiveRequests, res.LiveOffers)
		}
		if res.Stats.PenaltiesCollected != res.Stats.PenaltiesCredited {
			t.Fatalf("seed %d: penalty budget unbalanced: %g vs %g",
				seed, res.Stats.PenaltiesCollected, res.Stats.PenaltiesCredited)
		}
		agg.Reservations += res.Stats.Reservations
		agg.Delivered += res.Stats.Delivered
		agg.NoShows += res.Stats.NoShows
		agg.SellerDefaults += res.Stats.SellerDefaults
		agg.SpotMatched += res.Stats.SpotMatched
		agg.Cancels += res.Stats.Cancels
	}
	if agg.Reservations == 0 {
		t.Fatal("seed sweep never made a reservation")
	}
	if agg.Delivered == 0 {
		t.Fatal("seed sweep never delivered a reservation")
	}
	if agg.NoShows == 0 {
		t.Fatal("seed sweep never exercised a buyer no-show")
	}
	if agg.SellerDefaults == 0 {
		t.Fatal("seed sweep never exercised a seller default")
	}
	if agg.SpotMatched == 0 {
		t.Fatal("seed sweep never matched a spot order")
	}
}

// reservationUtility returns the buyer's utility from one reservation
// round under certain delivery (no shocks, no overbooking): true value
// minus payment if reserved, zero otherwise. trueValue is passed
// explicitly because the misreport run rewrites only the Bid.
func reservationUtility(made []*futures.Reservation, id bidding.OrderID, trueValue float64) float64 {
	for _, r := range made {
		if r.Request.ID == id {
			return trueValue - r.Payment
		}
	}
	return 0
}

// runReserveOnly clears one forward-only reservation round and returns
// the contracts made. OverbookRatio is 1.0 and no verdicts are set, so
// every contract here delivers with certainty — reservation-time utility
// IS final utility.
func runReserveOnly(reqs []*bidding.Request, offs []*bidding.Offer) []*futures.Reservation {
	ex := futures.New(auction.DefaultConfig(), futures.Config{
		OverbookRatio:  1.0,
		PenaltyRate:    0.2,
		ReserveHorizon: 1,
	})
	return ex.Reserve(futures.RoundInput{FwdRequests: reqs, FwdOffers: offs})
}

// TestBuyerReservationTruthfulness: across randomized forward markets,
// no sampled misreport (under- or over-bidding by up to 2x) earns any
// buyer more than bidding its true value. The uniform price floor never
// reads the buyer's own bid, so a report only moves priority and the
// trade/no-trade margin — audited here empirically over the deviation
// grid.
func TestBuyerReservationTruthfulness(t *testing.T) {
	factors := []float64{0.5, 0.8, 0.95, 1.1, 1.5, 2.0}
	for seed := int64(0); seed < 16; seed++ {
		tr := NewTrace(seed, 24, 1)
		reqs, offs := tr.Rounds[0].FwdRequests, tr.Rounds[0].FwdOffers
		if len(reqs) == 0 || len(offs) == 0 {
			continue
		}
		truthful := runReserveOnly(reqs, offs)
		for ti, target := range reqs {
			baseline := reservationUtility(truthful, target.ID, target.TrueValue)
			if baseline < -1e-9 {
				t.Fatalf("seed %d: truthful bidding gave %s negative utility %g",
					seed, target.ID, baseline)
			}
			for _, f := range factors {
				misreport := make([]*bidding.Request, len(reqs))
				copy(misreport, reqs)
				lie := *target
				lie.Bid = target.TrueValue * f
				misreport[ti] = &lie
				made := runReserveOnly(misreport, offs)
				if got := reservationUtility(made, target.ID, target.TrueValue); got > baseline+1e-9 {
					t.Fatalf("seed %d: %s profits from bidding %.2gx true value: utility %g > truthful %g",
						seed, target.ID, f, got, baseline)
				}
			}
		}
	}
}

// TestIndividualRationality: every contract the reservation stage makes
// prices inside [seller's unit cost, buyer's unit value] — no truthful
// non-defaulting participant ever trades at a loss — and after a full
// replay, only contract-breakers carry a negative penalty balance.
func TestIndividualRationality(t *testing.T) {
	for _, seed := range []int64{1, 5, 9, 13} {
		tr := NewTrace(seed, 48, 4)
		ex := futures.New(spotConfig(1), enabled)
		breakers := make(map[bidding.ParticipantID]bool)
		for i, in := range tr.Rounds {
			res := ex.Run(in)
			for _, r := range res.Reserved {
				v := r.Request.Bid / futures.RequestLoad(r.Request)
				c := r.Offer.Bid / futures.OfferCapacity(r.Offer)
				if r.UnitPrice < c-1e-9 || r.UnitPrice > v+1e-9 {
					t.Fatalf("seed %d round %d: contract %s/%s priced %g outside [ĉ=%g, v̂=%g]",
						seed, i, r.Request.ID, r.Offer.ID, r.UnitPrice, c, v)
				}
				if r.Payment > r.Request.Bid+1e-9 {
					t.Fatalf("seed %d round %d: %s pays %g above its bid %g",
						seed, i, r.Request.ID, r.Payment, r.Request.Bid)
				}
			}
			if d := res.Delivery; d != nil {
				for _, r := range d.NoShows {
					breakers[r.Request.Client] = true
				}
				for _, r := range d.Defaults {
					breakers[r.Offer.Provider] = true
				}
				for _, r := range d.Bumped {
					breakers[r.Offer.Provider] = true
				}
			}
		}
		for i := 0; i < enabled.ReserveHorizon; i++ {
			res := ex.Run(futures.RoundInput{
				Evidence: []byte(fmt.Sprintf("ir-%d-drain-%d", seed, i)),
			})
			if d := res.Delivery; d != nil {
				for _, r := range d.NoShows {
					breakers[r.Request.Client] = true
				}
				for _, r := range d.Defaults {
					breakers[r.Offer.Provider] = true
				}
				for _, r := range d.Bumped {
					breakers[r.Offer.Provider] = true
				}
			}
		}
		// Collect every participant the trace mentions and audit balances.
		parties := make(map[bidding.ParticipantID]bool)
		for _, in := range tr.Rounds {
			for _, r := range append(append([]*bidding.Request{}, in.FwdRequests...), in.SpotRequests...) {
				parties[r.Client] = true
			}
			for _, o := range append(append([]*bidding.Offer{}, in.FwdOffers...), in.SpotOffers...) {
				parties[o.Provider] = true
			}
		}
		var net float64
		for p := range parties {
			bal := ex.PenaltyBalance(p)
			net += bal
			if bal < -1e-9 && !breakers[p] {
				t.Fatalf("seed %d: non-breaker %s has negative penalty balance %g", seed, p, bal)
			}
		}
		if math.Abs(net) > 1e-6 {
			t.Fatalf("seed %d: net penalty balance %g, want 0", seed, net)
		}
	}
}

// TestCancelFlowsThroughReplay: a cancelled reservation pays its
// penalty, frees its capacity, and the conservation identity still
// closes (Replay checks it per round).
func TestCancelFlowsThroughReplay(t *testing.T) {
	tr := NewTrace(7, 48, 3)
	ex := futures.New(spotConfig(1), enabled)
	cancelled := 0
	for _, in := range tr.Rounds {
		res := ex.Run(in)
		// Cancel the first contract made each round, before it comes due.
		if len(res.Reserved) > 0 {
			id := res.Reserved[0].Request.ID
			if err := ex.Cancel(id); err != nil {
				t.Fatalf("cancel %s: %v", id, err)
			}
			if err := ex.Cancel(id); err == nil {
				t.Fatalf("double-cancel of %s succeeded", id)
			}
			cancelled++
		}
		if err := ex.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < enabled.ReserveHorizon; i++ {
		ex.Run(futures.RoundInput{Evidence: []byte(fmt.Sprintf("cancel-drain-%d", i))})
	}
	if err := ex.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	if cancelled == 0 || st.Cancels != int64(cancelled) {
		t.Fatalf("cancels recorded %d, want %d (nonzero)", st.Cancels, cancelled)
	}
	if st.PenaltiesCollected <= 0 {
		t.Fatal("cancels moved no penalty")
	}
}
