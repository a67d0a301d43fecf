package auction

import (
	"math"
	"testing"

	"decloud/internal/bidding"
	"decloud/internal/resource"
)

func trackerOffer() *bidding.Offer {
	return &bidding.Offer{
		ID: "o", Provider: "p",
		Resources: resource.Vector{resource.CPU: 4, resource.RAM: 16},
		Start:     0, End: 100, Bid: 1,
	}
}

func trackerRequest(cpu float64, dur int64) *bidding.Request {
	return &bidding.Request{
		ID: "r", Client: "c",
		Resources: resource.Vector{resource.CPU: cpu, resource.RAM: cpu * 4},
		Start:     0, End: 100, Duration: dur, Bid: 1,
	}
}

func TestTryGrantFullRequest(t *testing.T) {
	tr := NewTracker()
	o := trackerOffer()
	r := trackerRequest(2, 50)
	g := tr.TryGrant(r, o)
	if g == nil || g[resource.CPU] != 2 || g[resource.RAM] != 8 {
		t.Fatalf("grant = %v", g)
	}
}

func TestTryGrantInstantaneousCap(t *testing.T) {
	tr := NewTracker()
	o := trackerOffer()
	r := trackerRequest(8, 10) // more cores than the machine has
	if g := tr.TryGrant(r, o); g != nil {
		t.Fatalf("grant beyond instantaneous capacity: %v", g)
	}
}

func TestTryGrantResourceTimeBudget(t *testing.T) {
	tr := NewTracker()
	o := trackerOffer() // 4 cores × 100 s = 400 core·s
	// First request consumes 2 cores × 100 s = 200 core·s.
	r1 := trackerRequest(2, 100)
	g1 := tr.TryGrant(r1, o)
	if g1 == nil {
		t.Fatal("first grant failed")
	}
	tr.Commit(o, g1, r1.Duration)
	// Second identical request fits exactly into the remaining 200.
	r2 := trackerRequest(2, 100)
	r2.ID = "r2"
	g2 := tr.TryGrant(r2, o)
	if g2 == nil {
		t.Fatal("second grant should fit exactly")
	}
	tr.Commit(o, g2, r2.Duration)
	// Third cannot.
	r3 := trackerRequest(2, 100)
	r3.ID = "r3"
	if g := tr.TryGrant(r3, o); g != nil {
		t.Fatalf("overcommit: %v (remaining %v)", g, tr.capacity(o).Clone())
	}
}

func TestTryGrantFlexPartial(t *testing.T) {
	tr := NewTracker()
	o := trackerOffer()
	r := trackerRequest(2, 100)
	g := tr.TryGrant(r, o)
	tr.Commit(o, g, r.Duration) // 2 cores × 100 s gone, 200 core·s left

	big := trackerRequest(4, 100) // wants 400 core·s, only 200 remain
	big.ID = "big"
	if g := tr.TryGrant(big, o); g != nil {
		t.Fatalf("inflexible partial grant: %v", g)
	}
	big.Flexibility = 0.5 // accepts ≥ 2 cores
	g = tr.TryGrant(big, o)
	if g == nil {
		t.Fatal("flexible request should take the remaining capacity")
	}
	if math.Abs(g[resource.CPU]-2) > 1e-9 {
		t.Fatalf("granted cpu = %v, want 2 (remaining/duration)", g[resource.CPU])
	}
}

func TestTryGrantDoesNotMutate(t *testing.T) {
	tr := NewTracker()
	o := trackerOffer()
	r := trackerRequest(2, 50)
	before := tr.capacity(o).Clone()
	_ = tr.TryGrant(r, o)
	after := tr.capacity(o).Clone()
	if !before.Equal(after) {
		t.Fatalf("TryGrant mutated capacity: %v → %v", before, after)
	}
}

func TestTrackerClone(t *testing.T) {
	tr := NewTracker()
	o := trackerOffer()
	r := trackerRequest(2, 100)
	g := tr.TryGrant(r, o)
	clone := tr.Clone()
	clone.Commit(o, g, r.Duration)
	if !tr.capacity(o).Clone().Equal(o.Resources.Scale(100)) {
		t.Fatal("commit on clone leaked into original")
	}
}

func TestFractionEquation6(t *testing.T) {
	o := trackerOffer() // 4 cpu / 16 ram, window 100
	r := trackerRequest(2, 50)
	g := resource.Vector{resource.CPU: 2, resource.RAM: 8}
	// φ = (50/100) · ((2/4 + 8/16)/2) = 0.5 · 0.5 = 0.25
	if got := Fraction(g, r, o); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("Fraction = %v, want 0.25", got)
	}
	// Kinds the offer lacks contribute nothing.
	g2 := resource.Vector{resource.CPU: 2, resource.GPU: 1}
	want := 0.5 * (2.0 / 4) // only the cpu term
	if got := Fraction(g2, r, o); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Fraction = %v, want %v", got, want)
	}
	if Fraction(nil, r, o) != 0 {
		t.Fatal("empty grant should have zero fraction")
	}
}
