package auction

import (
	"decloud/internal/bidding"
	"decloud/internal/resource"
)

// Match records one executed trade: request r hosted on offer o with a
// concrete resource grant, the mini-auction's unit clearing price p, the
// request's resource share ν, and the resulting payment p_r = ν·p·d_r
// (Eq. 19 scaled by duration).
type Match struct {
	Request   *bidding.Request
	Offer     *bidding.Offer
	Granted   resource.Vector
	Fraction  float64 // φ_{(r,o)} per Eq. 6
	Nu        float64 // ν computed on the granted resources
	UnitPrice float64 // the mini-auction clearing price p
	Payment   float64 // what the client pays = what the provider receives
}

// Outcome is the result of running the mechanism on one block.
type Outcome struct {
	// Matches lists executed trades in deterministic order.
	Matches []Match
	// Payments maps request ID → client payment.
	Payments map[bidding.OrderID]float64
	// Revenues maps offer ID → provider revenue (Σ of its matches'
	// payments, so strong budget balance holds by construction).
	Revenues map[bidding.OrderID]float64
	// ReducedRequests are requests excluded by trade reduction: orders of
	// a price-setting client that were competitive (v̂ ≥ p) but barred to
	// preserve DSIC, and that found no other trade in the block.
	ReducedRequests []bidding.OrderID
	// ReducedOffers are offers excluded analogously on the provider side.
	ReducedOffers []bidding.OrderID
	// LotteryDropped are competitive requests that lost the randomized
	// exclusion applied when demand exceeds supply at the clearing price.
	LotteryDropped []bidding.OrderID
	// RejectedRequests and RejectedOffers failed validation at intake.
	RejectedRequests []bidding.OrderID
	RejectedOffers   []bidding.OrderID
	// Clusters and MiniAuctions count the structures the mechanism built.
	Clusters     int
	MiniAuctions int
}

// Welfare returns the realized social welfare Σ (v_r − φ_{(r,o)} c_o)
// computed against the participants' TRUE valuations and costs (Eq. 3).
func (out *Outcome) Welfare() float64 {
	var w float64
	for _, m := range out.Matches {
		w += m.Request.TrueValue - float64(m.Fraction*m.Offer.TrueCost)
	}
	return w
}

// BidWelfare returns the welfare computed from reported bids; equal to
// Welfare under truthful bidding.
func (out *Outcome) BidWelfare() float64 {
	var w float64
	for _, m := range out.Matches {
		w += m.Request.Bid - float64(m.Fraction*m.Offer.Bid)
	}
	return w
}

// TotalPayments sums all client payments.
func (out *Outcome) TotalPayments() float64 {
	var t float64
	for _, m := range out.Matches {
		t += m.Payment
	}
	return t
}

// TotalRevenues sums all provider revenues; equals TotalPayments exactly
// (strong budget balance).
func (out *Outcome) TotalRevenues() float64 {
	var t float64
	for _, m := range out.Matches {
		t += m.Payment
	}
	return t
}

// MatchedRequests reports how many requests traded.
func (out *Outcome) MatchedRequests() int { return len(out.Matches) }

// Satisfaction is the fraction of submitted requests that were allocated
// (Figures 5d–5e's metric), given the total number submitted.
func (out *Outcome) Satisfaction(totalRequests int) float64 {
	if totalRequests == 0 {
		return 0
	}
	return float64(len(out.Matches)) / float64(totalRequests)
}

// RevenueFor returns the revenue of offer id (0 when unmatched).
func (out *Outcome) RevenueFor(id bidding.OrderID) float64 { return out.Revenues[id] }

// MatchFor returns the match of request id, or nil.
func (out *Outcome) MatchFor(id bidding.OrderID) *Match {
	for i := range out.Matches {
		if out.Matches[i].Request.ID == id {
			return &out.Matches[i]
		}
	}
	return nil
}
