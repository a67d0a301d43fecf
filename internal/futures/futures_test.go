package futures

import (
	"fmt"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/resource"
	"decloud/internal/workload"
)

// freq builds a CPU-only request: qty cores for dur time units anywhere
// in [start, end), bidding bid for the whole duration (truthfully).
func freq(id, client string, qty float64, start, end, dur int64, bid float64) *bidding.Request {
	return &bidding.Request{
		ID:        bidding.OrderID(id),
		Client:    bidding.ParticipantID(client),
		Resources: resource.Vector{resource.CPU: qty},
		Start:     start,
		End:       end,
		Duration:  dur,
		Bid:       bid,
		TrueValue: bid,
	}
}

// foff builds a CPU-only offer: qty cores over [start, end) asking bid
// for the full window.
func foff(id, provider string, qty float64, start, end int64, bid float64) *bidding.Offer {
	return &bidding.Offer{
		ID:        bidding.OrderID(id),
		Provider:  bidding.ParticipantID(provider),
		Resources: resource.Vector{resource.CPU: qty},
		Start:     start,
		End:       end,
		Bid:       bid,
		TrueCost:  bid,
	}
}

// futEx builds an exchange over the default spot mechanism.
func futEx(ratio float64, horizon int) *Exchange {
	return New(auction.DefaultConfig(), Config{
		OverbookRatio:  ratio,
		PenaltyRate:    0.25,
		ReserveHorizon: horizon,
	})
}

// TestReserveUniformPriceFloor: with room for one of two requests, the
// winner pays the loser's unit value — the classic capacity-excluded
// floor — not its own bid and not the seller's ask.
func TestReserveUniformPriceFloor(t *testing.T) {
	ex := futEx(1.0, 1)
	// Offer: 1 core × 10 time units = capacity 10, ask 10 → ĉ = 1.
	// Both requests want the full 10 resource·time; only one fits.
	made := ex.Reserve(RoundInput{
		FwdRequests: []*bidding.Request{
			freq("r-hi", "c1", 1, 0, 10, 10, 40), // v̂ = 4
			freq("r-lo", "c2", 1, 0, 10, 10, 30), // v̂ = 3
		},
		FwdOffers: []*bidding.Offer{foff("o1", "p1", 1, 0, 10, 10)},
	})
	if len(made) != 1 {
		t.Fatalf("reservations made = %d, want 1", len(made))
	}
	r := made[0]
	if r.Request.ID != "r-hi" {
		t.Fatalf("winner = %s, want r-hi", r.Request.ID)
	}
	if r.UnitPrice != 3 {
		t.Fatalf("unit price = %g, want the excluded v̂ 3", r.UnitPrice)
	}
	if r.Payment != 30 {
		t.Fatalf("payment = %g, want 30", r.Payment)
	}
}

// TestReservePricedOut: when the floor exceeds a placed request's own
// unit value, its contract is dropped rather than priced beyond the bid
// — individual rationality beats trade volume.
func TestReservePricedOut(t *testing.T) {
	ex := futEx(1.0, 1)
	// Offer capacity 10. r-top (load 6, v̂ 5) reserves; r-big (load 6,
	// v̂ 4.5) no longer fits → capacity-excluded, floor 4.5; r-small
	// (load 4, v̂ 4) fits the remainder but the floor exceeds its v̂.
	made := ex.Reserve(RoundInput{
		FwdRequests: []*bidding.Request{
			freq("r-top", "c1", 1, 0, 10, 6, 30),   // v̂ 5.0: reserved
			freq("r-big", "c2", 1, 0, 10, 6, 27),   // v̂ 4.5: excluded → floor
			freq("r-small", "c3", 1, 0, 10, 4, 16), // v̂ 4.0 < floor: priced out
		},
		FwdOffers: []*bidding.Offer{foff("o1", "p1", 1, 0, 10, 10)},
	})
	if len(made) != 1 || made[0].Request.ID != "r-top" {
		t.Fatalf("made = %v, want only r-top", made)
	}
	if made[0].UnitPrice != 4.5 {
		t.Fatalf("unit price = %g, want floor 4.5", made[0].UnitPrice)
	}
	if got := ex.Stats().PricedOut; got != 1 {
		t.Fatalf("priced-out = %d, want 1 (r-small)", got)
	}
}

// TestDeliverOverbookBump: selling 2x capacity and having every buyer
// show up forces a bump at delivery — the lower-priority contract pays
// the seller's penalty to the buyer and the request retries spot.
func TestDeliverOverbookBump(t *testing.T) {
	ex := futEx(2.0, 1)
	first := ex.Run(RoundInput{
		FwdRequests: []*bidding.Request{
			freq("r-a", "c1", 1, 0, 10, 10, 40),
			freq("r-b", "c2", 1, 0, 10, 10, 30),
		},
		FwdOffers: []*bidding.Offer{foff("o1", "p1", 1, 0, 10, 10)},
		Evidence:  []byte("bump-reserve"),
	})
	if len(first.Reserved) != 2 {
		t.Fatalf("overbooked reservations = %d, want 2", len(first.Reserved))
	}
	res := ex.Run(RoundInput{Evidence: []byte("bump-round")})
	d := res.Delivery
	if d == nil {
		t.Fatal("no delivery at the due round")
	}
	if len(d.Delivered) != 1 || d.Delivered[0].Request.ID != "r-a" {
		t.Fatalf("delivered = %v, want r-a only", d.Delivered)
	}
	if len(d.Bumped) != 1 || d.Bumped[0].Request.ID != "r-b" {
		t.Fatalf("bumped = %v, want r-b", d.Bumped)
	}
	if len(d.RetryRequests) != 1 || d.RetryRequests[0].ID != "r-b" {
		t.Fatalf("retries = %v, want r-b", d.RetryRequests)
	}
	// The seller pays the bump penalty to the bumped buyer.
	pen := 0.25 * d.Bumped[0].Payment
	if got := ex.PenaltyBalance("c2"); got != pen {
		t.Fatalf("bumped buyer credit = %g, want %g", got, pen)
	}
	if got := ex.PenaltyBalance("p1"); got != -pen {
		t.Fatalf("seller debit = %g, want %g", got, -pen)
	}
	if err := ex.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestDeliverSellerDefault: a defaulted offer fails all its contracts,
// pays each buyer the penalty, and none of its capacity enters spot.
func TestDeliverSellerDefault(t *testing.T) {
	ex := futEx(1.0, 1)
	ex.Run(RoundInput{
		FwdRequests: []*bidding.Request{freq("r-a", "c1", 1, 0, 10, 10, 40)},
		FwdOffers:   []*bidding.Offer{foff("o1", "p1", 1, 0, 10, 10)},
		Defaults:    map[bidding.OrderID]bool{"o1": true},
		Evidence:    []byte("default-reserve"),
	})
	res := ex.Run(RoundInput{Evidence: []byte("default-round")})
	d := res.Delivery
	if d == nil || len(d.Defaults) != 1 {
		t.Fatalf("delivery = %+v, want one default", d)
	}
	if len(d.RemainderOffers) != 0 {
		t.Fatalf("defaulted capacity entered spot: %v", d.RemainderOffers)
	}
	if len(d.RetryRequests) != 1 || d.RetryRequests[0].ID != "r-a" {
		t.Fatalf("retries = %v, want r-a", d.RetryRequests)
	}
	if got := ex.PenaltyBalance("p1"); got >= 0 {
		t.Fatalf("defaulting seller balance = %g, want negative", got)
	}
	if err := ex.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestRemainderOfferKeepsUnitCost: partially reserved capacity re-enters
// the spot market scaled down, with the ask shrunk proportionally so the
// provider's unit cost ĉ is unchanged.
func TestRemainderOfferKeepsUnitCost(t *testing.T) {
	ex := futEx(1.0, 1)
	// Offer 2 cores × 10 = capacity 20; the reservation takes 10.
	first := ex.Run(RoundInput{
		FwdRequests: []*bidding.Request{freq("r-a", "c1", 1, 0, 10, 10, 40)},
		FwdOffers:   []*bidding.Offer{foff("o1", "p1", 2, 0, 10, 30)},
		Evidence:    []byte("remainder-reserve"),
	})
	if len(first.Reserved) != 1 {
		t.Fatalf("reservations = %d, want 1", len(first.Reserved))
	}
	res := ex.Run(RoundInput{Evidence: []byte("remainder-round")})
	d := res.Delivery
	if d == nil || len(d.RemainderOffers) != 1 {
		t.Fatalf("delivery = %+v, want one remainder offer", d)
	}
	rem := d.RemainderOffers[0]
	if rem == first.Reserved[0].Offer {
		t.Fatal("partially used offer passed through as the original pointer")
	}
	if got := rem.Resources[resource.CPU]; got != 1 {
		t.Fatalf("remainder cores = %g, want 1", got)
	}
	origC := 30.0 / 20.0
	if got := rem.Bid / OfferCapacity(rem); got != origC {
		t.Fatalf("remainder ĉ = %g, want %g", got, origC)
	}
}

// TestDisabledStageRejectsForwardOrders: with ReserveHorizon=0, forward
// submissions are misroutings — counted rejected, never reserved.
func TestDisabledStageRejectsForwardOrders(t *testing.T) {
	ex := New(auction.DefaultConfig(), Config{})
	made := ex.Reserve(RoundInput{
		FwdRequests: []*bidding.Request{freq("r-a", "c1", 1, 0, 10, 10, 40)},
		FwdOffers:   []*bidding.Offer{foff("o1", "p1", 1, 0, 10, 10)},
	})
	if made != nil {
		t.Fatalf("disabled stage made reservations: %v", made)
	}
	if liveR, liveO := ex.Live(); liveR != 0 || liveO != 0 {
		t.Fatalf("disabled stage holds live orders: %d/%d", liveR, liveO)
	}
}

// TestNoShowFreesCapacityForLowerPriority: an overbooked offer whose
// top-priority buyer no-shows delivers the lower-priority contract into
// the freed real capacity instead of bumping it.
func TestNoShowFreesCapacityForLowerPriority(t *testing.T) {
	ex := futEx(2.0, 1)
	ex.Run(RoundInput{
		FwdRequests: []*bidding.Request{
			freq("r-a", "c1", 1, 0, 10, 10, 40),
			freq("r-b", "c2", 1, 0, 10, 10, 30),
		},
		FwdOffers: []*bidding.Offer{foff("o1", "p1", 1, 0, 10, 10)},
		NoShows:   map[bidding.OrderID]bool{"r-a": true},
		Evidence:  []byte("noshow-reserve"),
	})
	res := ex.Run(RoundInput{Evidence: []byte("noshow-round")})
	d := res.Delivery
	if d == nil {
		t.Fatal("no delivery")
	}
	if len(d.NoShows) != 1 || d.NoShows[0].Request.ID != "r-a" {
		t.Fatalf("no-shows = %v, want r-a", d.NoShows)
	}
	if len(d.Delivered) != 1 || d.Delivered[0].Request.ID != "r-b" {
		t.Fatalf("delivered = %v, want r-b into the freed capacity", d.Delivered)
	}
	if len(d.Bumped) != 0 {
		t.Fatalf("bumped = %v, want none", d.Bumped)
	}
	if err := ex.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTwoStage1000 measures one full two-stage round over a
// 1000-request market with a 50% forward split — the headline number for
// the reservation stage's overhead relative to plain clearing.
func BenchmarkTwoStage1000(b *testing.B) {
	m := workload.Generate(workload.Config{Seed: 42, Requests: 1000})
	tm := workload.SplitTwoStage(m, 42, 0.5, 0.1, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := futEx(1.5, 1)
		ex.Run(RoundInput{
			FwdRequests:  tm.Fwd.Requests,
			FwdOffers:    tm.Fwd.Offers,
			SpotRequests: tm.Spot.Requests,
			SpotOffers:   tm.Spot.Offers,
			NoShows:      tm.NoShows,
			Defaults:     tm.Defaults,
			Evidence:     []byte(fmt.Sprintf("bench-%d", i)),
		})
		ex.Run(RoundInput{Evidence: []byte("bench-drain")})
	}
}
