package workload

import (
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/metro"
)

// TestStreamDeterminism: the same seed yields the same emission sequence,
// order for order; a different seed diverges.
func TestStreamDeterminism(t *testing.T) {
	cfg := StreamConfig{Seed: 42, Clients: 4, EpochOrders: 64}
	a := NewStream(cfg).Emit(500)
	b := NewStream(cfg).Emit(500)
	for i := range a {
		if a[i].ID() != b[i].ID() {
			t.Fatalf("emission %d diverged: %s vs %s", i, a[i].ID(), b[i].ID())
		}
		switch {
		case a[i].Request != nil:
			ar, br := a[i].Request, b[i].Request
			if br == nil || ar.Bid != br.Bid || ar.Start != br.Start || ar.End != br.End ||
				ar.Duration != br.Duration || ar.Submitted != br.Submitted ||
				ar.Resources["cpu"] != br.Resources["cpu"] {
				t.Fatalf("emission %d request diverged", i)
			}
		case a[i].Offer != nil:
			ao, bo := a[i].Offer, b[i].Offer
			if bo == nil || ao.Bid != bo.Bid || ao.Start != bo.Start || ao.End != bo.End {
				t.Fatalf("emission %d offer diverged", i)
			}
		}
	}
	c := NewStream(StreamConfig{Seed: 43, Clients: 4, EpochOrders: 64}).Emit(500)
	same := 0
	for i := range a {
		if a[i].Request != nil && c[i].Request != nil && a[i].Request.Bid == c[i].Request.Bid {
			same++
		}
	}
	if same == 500 {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestStreamInterleavingIndependence: client c's j-th order is identical
// whether emissions round-robin over all clients or drain one client at
// a time.
func TestStreamInterleavingIndependence(t *testing.T) {
	cfg := StreamConfig{Seed: 7, Clients: 3, EpochOrders: 30}
	rr := NewStream(cfg)
	perClient := make(map[int][]StreamOrder)
	for _, so := range rr.Emit(300) {
		perClient[so.Client] = append(perClient[so.Client], so)
	}
	solo := NewStream(cfg)
	for c := 0; c < 3; c++ {
		for j, want := range perClient[c] {
			got := solo.emit(c)
			if got.ID() != want.ID() {
				t.Fatalf("client %d emission %d: alone %s, round-robin %s", c, j, got.ID(), want.ID())
			}
		}
	}
}

// TestStreamEpochStructure: every order's window nests inside its epoch,
// offers lead each epoch, and emitted orders validate.
func TestStreamEpochStructure(t *testing.T) {
	cfg := StreamConfig{Seed: 3, Clients: 4, EpochOrders: 40, EpochSec: 600}
	orders := NewStream(cfg).Emit(400)
	offers, requests := 0, 0
	for i, so := range orders {
		epoch := int64(i) / int64(cfg.EpochOrders)
		lo, hi := epoch*cfg.EpochSec, (epoch+1)*cfg.EpochSec
		switch {
		case so.Offer != nil:
			offers++
			if err := so.Offer.Validate(); err != nil {
				t.Fatalf("offer %d invalid: %v", i, err)
			}
			if so.Offer.Start != lo || so.Offer.End != hi {
				t.Fatalf("offer %d window [%d,%d] escapes epoch [%d,%d]", i, so.Offer.Start, so.Offer.End, lo, hi)
			}
		case so.Request != nil:
			requests++
			if err := so.Request.Validate(); err != nil {
				t.Fatalf("request %d invalid: %v", i, err)
			}
			if so.Request.Start < lo || so.Request.End > hi {
				t.Fatalf("request %d window [%d,%d] escapes epoch [%d,%d]", i, so.Request.Start, so.Request.End, lo, hi)
			}
			if so.Request.Bid <= 0 || so.Request.Duration <= 0 {
				t.Fatalf("request %d degenerate: bid=%v dur=%d", i, so.Request.Bid, so.Request.Duration)
			}
		default:
			t.Fatalf("emission %d is neither request nor offer", i)
		}
		// Offers lead: within an epoch, no offer may follow a request.
		if so.Offer != nil && i%cfg.EpochOrders >= 10 {
			t.Fatalf("offer at in-epoch position %d; offers must lead the epoch", i%cfg.EpochOrders)
		}
	}
	if offers == 0 || requests == 0 {
		t.Fatalf("degenerate mix: %d offers, %d requests", offers, requests)
	}
	wantOffers := 400 / 40 * 10 // 0.25 × 40 per epoch × 10 epochs
	if offers != wantOffers {
		t.Fatalf("offer count %d, want %d", offers, wantOffers)
	}
}

// TestStreamMarketClears: a drained stream market clears through the
// real mechanism with a healthy match rate — the structural guarantee
// the load generator depends on.
func TestStreamMarketClears(t *testing.T) {
	m := &Market{}
	for _, so := range NewStream(StreamConfig{Seed: 1, EpochOrders: 128}).Emit(2000) {
		if so.Request != nil {
			m.Requests = append(m.Requests, so.Request)
		} else {
			m.Offers = append(m.Offers, so.Offer)
		}
	}
	if len(m.Requests)+len(m.Offers) != 2000 {
		t.Fatalf("collected %d+%d orders, want 2000", len(m.Requests), len(m.Offers))
	}
	cfg := auction.DefaultConfig()
	cfg.Evidence = []byte("stream-test")
	out := auction.Run(m.Requests, m.Offers, cfg)
	if got := len(out.Matches); got < len(m.Requests)/4 {
		t.Fatalf("only %d matches for %d requests; stream market does not clear", got, len(m.Requests))
	}
}

// TestStreamGeoLocations: with GeoRadius set, every order carries its
// client's fixed home location, requests get the radius as their
// locality constraint, and the clients spread over the unit square.
func TestStreamGeoLocations(t *testing.T) {
	cfg := StreamConfig{Seed: 9, Clients: 6, EpochOrders: 48, GeoRadius: 0.4}
	s := NewStream(cfg)
	homes := make(map[int]struct{ x, y float64 })
	for _, so := range s.Emit(400) {
		var x, y float64
		switch {
		case so.Request != nil:
			x, y = so.Request.Location.X, so.Request.Location.Y
			if so.Request.MaxDistance != 0.4 {
				t.Fatalf("request MaxDistance = %v, want 0.4", so.Request.MaxDistance)
			}
		case so.Offer != nil:
			x, y = so.Offer.Location.X, so.Offer.Location.Y
		}
		if x < 0 || x > 1 || y < 0 || y > 1 {
			t.Fatalf("location (%v, %v) outside unit square", x, y)
		}
		if h, ok := homes[so.Client]; ok {
			if h.x != x || h.y != y {
				t.Fatalf("client %d moved: (%v,%v) vs (%v,%v)", so.Client, h.x, h.y, x, y)
			}
		} else {
			homes[so.Client] = struct{ x, y float64 }{x, y}
		}
	}
	distinct := make(map[[2]float64]bool)
	for _, h := range homes {
		distinct[[2]float64{h.x, h.y}] = true
	}
	if len(distinct) < 2 {
		t.Fatal("all clients share one home location")
	}
	// Geo emission must not disturb the non-geo sequence semantics:
	// the same config replays identically.
	a := NewStream(cfg).Emit(100)
	b := NewStream(cfg).Emit(100)
	for i := range a {
		if a[i].ID() != b[i].ID() {
			t.Fatalf("geo stream not deterministic at %d", i)
		}
	}
}

// TestStreamMetroMix: with GeoMetros and a skewed mix, client homes land
// on their target metros and the arrival mass follows the weights.
func TestStreamMetroMix(t *testing.T) {
	cfg := StreamConfig{
		Seed: 5, Clients: 32, EpochOrders: 64,
		GeoRadius: 0.5, GeoMetros: 4, GeoMix: []float64{6, 2, 1, 1},
	}
	s := NewStream(cfg)
	perMetro := make([]int, 4)
	for _, so := range s.Emit(640) {
		var loc bidding.Location
		if so.Request != nil {
			loc = so.Request.Location
		} else {
			loc = so.Offer.Location
		}
		perMetro[metro.Home(loc, metro.DefaultCellSize, 4)]++
	}
	total := 0
	for _, n := range perMetro {
		total += n
	}
	if total != 640 {
		t.Fatalf("order mass lost: %d", total)
	}
	// Metro 0 carries weight 6 of 10: it must dominate every other metro.
	for m := 1; m < 4; m++ {
		if perMetro[0] <= perMetro[m] {
			t.Fatalf("mix not skewed: perMetro = %v", perMetro)
		}
	}
}
