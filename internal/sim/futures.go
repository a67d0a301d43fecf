package sim

import (
	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/contract"
	"decloud/internal/futures"
	"decloud/internal/ledger"
	"decloud/internal/workload"
)

// controlMarket merges a stage-split round back into one spot market for
// the control arm: surviving forward orders submit spot, failing ones
// are withheld (the no-show buyer never bids, the defaulting seller's
// capacity never materializes). Same demand/supply realization as the
// treatment arm, no reservation stage.
func controlMarket(tm *workload.TwoStageMarket) *workload.Market {
	m := &workload.Market{}
	for _, r := range tm.Fwd.Requests {
		if !tm.NoShows[r.ID] {
			m.Requests = append(m.Requests, r)
		}
	}
	m.Requests = append(m.Requests, tm.Spot.Requests...)
	for _, o := range tm.Fwd.Offers {
		if !tm.Defaults[o.ID] {
			m.Offers = append(m.Offers, o)
		}
	}
	m.Offers = append(m.Offers, tm.Spot.Offers...)
	return m
}

// spotUtilization is the control arm's realized-utilization mirror of
// the exchange's: matched resource·time over materialized capacity.
func spotUtilization(out *auction.Outcome, offs []*bidding.Offer) float64 {
	var capacity, used float64
	for _, o := range offs {
		capacity += futures.OfferCapacity(o)
	}
	for i := range out.Matches {
		used += futures.GrantedLoad(&out.Matches[i])
	}
	if capacity <= 0 {
		return 0
	}
	return used / capacity
}

// futuresClearer layers the reservation stage over an unchanged spot
// clearer: forward orders reserve, due reservations deliver, the
// delivery fallout joins the native spot orders, spot clears them — in
// process, or as a committed block in ledger mode, where the
// reservation stage runs off-chain (but hash-chained) — and the
// exchange records the spot outcome. market is the round's full
// submission set.
func futuresClearer(ex *futures.Exchange, spot clearer) clearer {
	return func(round int, market *workload.Market, tm *workload.TwoStageMarket) (*clearing, error) {
		rres := &futures.RoundResult{Round: ex.Round()}
		rres.Reserved = ex.Reserve(futures.RoundInput{
			FwdRequests: tm.Fwd.Requests,
			FwdOffers:   tm.Fwd.Offers,
			NoShows:     tm.NoShows,
			Defaults:    tm.Defaults,
		})
		rres.Delivery = ex.Deliver()
		reqs, offs := ex.SpotMarket(rres.Delivery, tm.Spot.Requests, tm.Spot.Offers)
		c, err := spot(round, &workload.Market{Requests: reqs, Offers: offs}, tm)
		if err != nil {
			return nil, err
		}
		ex.RecordSpot(rres, c.outcomes[0], reqs, offs)
		c.fut = rres
		c.utilization = rres.Utilization
		// The greedy benchmark runs over the round's FULL submission set
		// (both stages, failures included) — what an omniscient spot
		// matcher with no divergence would have cleared — so the welfare
		// ratio prices both the truthful design and the divergence risk.
		c.reqs, c.offs = market.Requests, market.Offers
		return c, nil
	}
}

// settleFuturesContracts pushes one delivery's settlements through the
// contract registry, so reputation prices forward reliability exactly as
// it prices spot denials: Delivered → client Accept (+reputation);
// NoShow → client Deny (deny penalty on the buyer); Defaulted/Bumped →
// provider-side Deny (penalty on the seller). Futures agreements are
// namespaced under synthetic negative block heights (-(round+1)): they
// settle against reservation state, not a chain block.
func settleFuturesContracts(reg *contract.Registry, d *futures.Delivery, round int, m *RoundMetrics) error {
	if d == nil {
		return nil
	}
	var list []*futures.Reservation
	list = append(list, d.Delivered...)
	list = append(list, d.NoShows...)
	list = append(list, d.Defaults...)
	list = append(list, d.Bumped...)
	if len(list) == 0 {
		return nil
	}
	recs := make([]ledger.AllocationRecord, 0, len(list))
	for _, r := range list {
		granted := make(map[string]float64, len(r.Request.Resources))
		for k, q := range r.Request.Resources {
			granted[string(k)] = q
		}
		recs = append(recs, ledger.AllocationRecord{
			RequestID: string(r.Request.ID),
			OfferID:   string(r.Offer.ID),
			Client:    string(r.Request.Client),
			Provider:  string(r.Offer.Provider),
			Payment:   r.Payment,
			UnitPrice: r.UnitPrice,
			Granted:   granted,
		})
	}
	ids := reg.ProposeFromBlock(int64(-(round + 1)), recs)
	for i, r := range list {
		id := ids[i]
		switch r.Status {
		case futures.Delivered:
			if err := reg.Accept(id, r.Request.Client); err != nil {
				return err
			}
			m.Agreed++
		case futures.NoShow:
			if _, err := reg.Deny(id, r.Request.Client); err != nil {
				return err
			}
			m.Denied++
		default: // Defaulted, Bumped: the seller broke the contract.
			if _, err := reg.DenyByProvider(id, r.Offer.Provider); err != nil {
				return err
			}
			m.Denied++
		}
	}
	return nil
}
