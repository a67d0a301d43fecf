package audit

import (
	"fmt"
	"math/rand"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/resource"
	"decloud/internal/workload"
)

func market(seed int64, n int) ([]*bidding.Request, []*bidding.Offer) {
	m := workload.Generate(workload.Config{Seed: seed, Requests: n})
	return m.Requests, m.Offers
}

func TestCleanOutcomesPassAudit(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		reqs, offs := market(int64(trial), 20+rnd.Intn(80))
		cfg := auction.DefaultConfig()
		cfg.Evidence = []byte(fmt.Sprintf("audit-%d", trial))
		if trial%2 == 0 {
			cfg.StrictReduction = true
		}
		out := auction.Run(reqs, offs, cfg)
		if vs := Outcome(reqs, offs, out); len(vs) != 0 {
			t.Fatalf("trial %d: clean outcome flagged: %v", trial, vs)
		}
	}
}

func TestAuditCatchesDoubleMatch(t *testing.T) {
	reqs, offs := market(1, 30)
	out := auction.Run(reqs, offs, auction.DefaultConfig())
	if len(out.Matches) == 0 {
		t.Fatal("no matches to duplicate")
	}
	out.Matches = append(out.Matches, out.Matches[0])
	if !has(Outcome(reqs, offs, out), "const5") {
		t.Fatal("duplicated match not caught")
	}
}

func TestAuditCatchesInflatedPayment(t *testing.T) {
	reqs, offs := market(2, 30)
	out := auction.Run(reqs, offs, auction.DefaultConfig())
	if len(out.Matches) == 0 {
		t.Fatal("no matches")
	}
	out.Matches[0].Payment = out.Matches[0].Request.Bid * 10
	vs := Outcome(reqs, offs, out)
	if !has(vs, "client-ir") {
		t.Fatalf("inflated payment not caught: %v", vs)
	}
	if !has(vs, "books") {
		t.Fatalf("books mismatch not caught: %v", vs)
	}
}

func TestAuditCatchesGhostOrders(t *testing.T) {
	reqs, offs := market(3, 30)
	out := auction.Run(reqs, offs, auction.DefaultConfig())
	if len(out.Matches) == 0 {
		t.Fatal("no matches")
	}
	ghost := *out.Matches[0].Request
	ghost.ID = "ghost"
	out.Matches[0].Request = &ghost
	if !has(Outcome(reqs, offs, out), "ghost-request") {
		t.Fatal("ghost request not caught")
	}
}

func TestAuditCatchesMutatedBid(t *testing.T) {
	reqs, offs := market(4, 30)
	out := auction.Run(reqs, offs, auction.DefaultConfig())
	if len(out.Matches) == 0 {
		t.Fatal("no matches")
	}
	mutated := *out.Matches[0].Request
	mutated.Bid *= 2
	out.Matches[0].Request = &mutated
	if !has(Outcome(reqs, offs, out), "mutated-request") {
		t.Fatal("mutated bid not caught")
	}
}

func TestAuditCatchesOverGrant(t *testing.T) {
	reqs, offs := market(5, 30)
	out := auction.Run(reqs, offs, auction.DefaultConfig())
	if len(out.Matches) == 0 {
		t.Fatal("no matches")
	}
	m := &out.Matches[0]
	m.Granted = m.Granted.Clone()
	m.Granted[resource.CPU] = m.Offer.Resources[resource.CPU] * 100
	vs := Outcome(reqs, offs, out)
	if !has(vs, "const8") {
		t.Fatalf("capacity violation not caught: %v", vs)
	}
}

func TestAuditCatchesTimeViolation(t *testing.T) {
	reqs, offs := market(6, 30)
	out := auction.Run(reqs, offs, auction.DefaultConfig())
	if len(out.Matches) == 0 {
		t.Fatal("no matches")
	}
	forged := *out.Matches[0].Offer
	forged.End = forged.Start + 1 // window no longer covers the request
	// Also plant the forged offer in the submitted set so the order-identity
	// check doesn't fire first.
	for i, o := range offs {
		if o.ID == forged.ID {
			offs[i] = &forged
		}
	}
	out.Matches[0].Offer = &forged
	if !has(Outcome(reqs, offs, out), "const10-11") {
		t.Fatal("time violation not caught")
	}
}

func TestAuditCatchesGhostOffer(t *testing.T) {
	reqs, offs := market(7, 30)
	out := auction.Run(reqs, offs, auction.DefaultConfig())
	if len(out.Matches) == 0 {
		t.Fatal("no matches")
	}
	ghost := *out.Matches[0].Offer
	ghost.ID = "ghost-offer"
	out.Matches[0].Offer = &ghost
	if !has(Outcome(reqs, offs, out), "ghost-offer") {
		t.Fatal("ghost offer not caught")
	}
}

func TestAuditCatchesMutatedOffer(t *testing.T) {
	reqs, offs := market(8, 30)
	out := auction.Run(reqs, offs, auction.DefaultConfig())
	if len(out.Matches) == 0 {
		t.Fatal("no matches")
	}
	mutated := *out.Matches[0].Offer
	mutated.Bid /= 2
	out.Matches[0].Offer = &mutated
	if !has(Outcome(reqs, offs, out), "mutated-offer") {
		t.Fatal("mutated offer bid not caught")
	}
}

func TestAuditCatchesLocalityViolation(t *testing.T) {
	// Only a geo-scattered market has matches at a positive distance.
	m := workload.Generate(workload.Config{Seed: 9, Requests: 60, GeoRadius: 0.6})
	reqs, offs := m.Requests, m.Offers
	out := auction.Run(reqs, offs, auction.DefaultConfig())
	// Find a match with a strictly positive client↔provider distance and
	// shrink the request's radius under it. MaxDistance is not part of the
	// audited order identity (only bid and resources are), so the
	// violation surfaces as a locality breach, not a mutation.
	for i := range out.Matches {
		m := &out.Matches[i]
		if d := m.Request.Location.Distance(m.Offer.Location); d > 0 {
			m.Request.MaxDistance = d / 2
			if !has(Outcome(reqs, offs, out), "locality") {
				t.Fatal("out-of-reach offer not caught")
			}
			return
		}
	}
	t.Fatal("no match with positive distance")
}

func TestAuditSkipsZeroNeedKinds(t *testing.T) {
	reqs, offs := market(10, 30)
	out := auction.Run(reqs, offs, auction.DefaultConfig())
	if len(out.Matches) == 0 {
		t.Fatal("no matches")
	}
	// A zero-valued resource entry demands nothing, so the flexibility
	// floor must not apply to it.
	out.Matches[0].Request.Resources["phantom-kind"] = 0
	if vs := Outcome(reqs, offs, out); len(vs) != 0 {
		t.Fatalf("zero-need kind flagged: %v", vs)
	}
}

func TestAuditCatchesFlexFloorViolation(t *testing.T) {
	reqs, offs := market(11, 30)
	out := auction.Run(reqs, offs, auction.DefaultConfig())
	if len(out.Matches) == 0 {
		t.Fatal("no matches")
	}
	m := &out.Matches[0]
	m.Granted = m.Granted.Clone()
	for k, need := range m.Request.Resources {
		if need > 0 {
			m.Granted[k] = 0
			break
		}
	}
	if !has(Outcome(reqs, offs, out), "flex-floor") {
		t.Fatal("starved grant not caught by the flexibility floor")
	}
}

func TestAuditCatchesPhiOutOfRange(t *testing.T) {
	reqs, offs := market(12, 30)
	out := auction.Run(reqs, offs, auction.DefaultConfig())
	if len(out.Matches) == 0 {
		t.Fatal("no matches")
	}
	m := &out.Matches[0]
	// φ = duration/window · mean(granted/cap), so granting twice the
	// window-to-duration ratio of every capacity forces φ = 2 (alongside
	// the capacity violations it also causes).
	scale := 2 * float64(m.Offer.Window()) / float64(m.Request.Duration)
	m.Granted = m.Offer.Resources.Scale(scale)
	vs := Outcome(reqs, offs, out)
	if !has(vs, "const6-7") {
		t.Fatalf("φ > 1 not caught: %v", vs)
	}
}

func TestAuditCatchesNegativePayment(t *testing.T) {
	reqs, offs := market(13, 30)
	out := auction.Run(reqs, offs, auction.DefaultConfig())
	if len(out.Matches) == 0 {
		t.Fatal("no matches")
	}
	out.Matches[0].Payment = -1
	vs := Outcome(reqs, offs, out)
	if !has(vs, "negative-payment") {
		t.Fatalf("negative payment not caught: %v", vs)
	}
}

func TestAuditCatchesTamperedBooks(t *testing.T) {
	reqs, offs := market(14, 30)
	out := auction.Run(reqs, offs, auction.DefaultConfig())
	if len(out.Payments) == 0 || len(out.Revenues) == 0 {
		t.Fatal("no payments")
	}
	for id := range out.Payments {
		out.Payments[id] += 5
		break
	}
	if vs := Outcome(reqs, offs, out); !has(vs, "books") {
		t.Fatalf("tampered payments map not caught: %v", vs)
	}
	out = auction.Run(reqs, offs, auction.DefaultConfig())
	for id := range out.Revenues {
		out.Revenues[id] -= 5
		break
	}
	if vs := Outcome(reqs, offs, out); !has(vs, "books") {
		t.Fatalf("tampered revenues map not caught: %v", vs)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Code: "x", Detail: "y"}
	if v.String() != "x: y" {
		t.Fatalf("String = %q", v.String())
	}
}

func has(vs []Violation, code string) bool {
	for _, v := range vs {
		if v.Code == code {
			return true
		}
	}
	return false
}
