// Package audit re-verifies a block allocation against every constraint
// of the paper's market model (Eqs. 5–14) plus the mechanism's economic
// guarantees (strong budget balance, client individual rationality).
// Verifying miners compare allocations byte-for-byte; auditing is the
// defense-in-depth layer on top — it catches a miscomputed allocation
// even if every replica miscomputed it the same way, and gives tests a
// single shared oracle for feasibility.
package audit

import (
	"fmt"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/resource"
)

// Violation is one broken constraint.
type Violation struct {
	// Code identifies the constraint, e.g. "const5", "budget-balance".
	Code string
	// Detail is a human-readable description.
	Detail string
}

func (v Violation) String() string { return v.Code + ": " + v.Detail }

const tolerance = 1e-6

// Outcome audits a mechanism outcome against the orders it was computed
// from. It returns every violation found (empty = clean).
func Outcome(requests []*bidding.Request, offers []*bidding.Offer, out *auction.Outcome) []Violation {
	var violations []Violation
	report := func(code, format string, args ...any) {
		violations = append(violations, Violation{Code: code, Detail: fmt.Sprintf(format, args...)})
	}

	reqByID := make(map[bidding.OrderID]*bidding.Request, len(requests))
	for _, r := range requests {
		reqByID[r.ID] = r
	}
	offByID := make(map[bidding.OrderID]*bidding.Offer, len(offers))
	for _, o := range offers {
		offByID[o.ID] = o
	}

	seen := make(map[bidding.OrderID]bool)
	used := make(map[bidding.OrderID]resource.Vector)
	var payments, revenues float64

	for i := range out.Matches {
		m := &out.Matches[i]
		r, o := m.Request, m.Offer

		// The matched orders must exist in the submitted set.
		if orig, ok := reqByID[r.ID]; !ok {
			report("ghost-request", "match %d references unknown request %s", i, r.ID)
			continue
		} else if orig.Bid != r.Bid || !orig.Resources.Equal(r.Resources) {
			report("mutated-request", "request %s differs from the submitted order", r.ID)
		}
		if orig, ok := offByID[o.ID]; !ok {
			report("ghost-offer", "match %d references unknown offer %s", i, o.ID)
			continue
		} else if orig.Bid != o.Bid || !orig.Resources.Equal(o.Resources) {
			report("mutated-offer", "offer %s differs from the submitted order", o.ID)
		}

		// Const. 5: one offer per request.
		if seen[r.ID] {
			report("const5", "request %s matched more than once", r.ID)
		}
		seen[r.ID] = true

		// Const. 10–11: time windows.
		if !bidding.TimeCompatible(r, o) {
			report("const10-11", "offer %s window does not cover request %s", o.ID, r.ID)
		}
		// Locality (ℓ_r as a hard radius).
		if !r.WithinReach(o) {
			report("locality", "offer %s is out of request %s's reach", o.ID, r.ID)
		}

		// Const. 8 + flexibility floor + no over-grant.
		for k, g := range m.Granted {
			if g > o.Resources[k]+tolerance {
				report("const8", "grant of %s on %s exceeds capacity: %v > %v", k, o.ID, g, o.Resources[k])
			}
			if g > r.Resources[k]+tolerance {
				report("over-grant", "grant of %s to %s exceeds the request: %v > %v", k, r.ID, g, r.Resources[k])
			}
		}
		for k, need := range r.Resources {
			if need <= 0 {
				continue
			}
			if m.Granted[k] < float64(need*r.Flex())-tolerance {
				report("flex-floor", "grant of %s to %s below the flexibility floor: %v < %v·%v",
					k, r.ID, m.Granted[k], r.Flex(), need)
			}
		}

		// φ and payment consistency.
		if phi := auction.Fraction(m.Granted, r, o); phi < 0 || phi > 1+tolerance {
			report("const6-7", "φ out of range for %s→%s: %v", r.ID, o.ID, phi)
		}
		// Client IR: never pay above the bid.
		if m.Payment > r.Bid+tolerance {
			report("client-ir", "request %s pays %v above its bid %v", r.ID, m.Payment, r.Bid)
		}
		if m.Payment < -tolerance {
			report("negative-payment", "request %s has negative payment %v", r.ID, m.Payment)
		}

		prev := used[o.ID]
		if prev == nil {
			prev = make(resource.Vector)
		}
		used[o.ID] = prev.Add(m.Granted.Scale(float64(r.Duration)))
		payments += m.Payment
		revenues += m.Payment
	}

	// Const. 7: aggregate resource·time per offer.
	for id, u := range used {
		o := offByID[id]
		if o == nil {
			continue // already reported as ghost-offer
		}
		cap := o.Resources.Scale(float64(o.Window()))
		for _, k := range u.Kinds() {
			if u[k] > cap[k]+tolerance {
				report("const7", "offer %s kind %s overcommitted: %v > %v", id, k, u[k], cap[k])
			}
		}
	}

	// Strong budget balance against the outcome's own books.
	var mapPayments, mapRevenues float64
	for _, p := range out.Payments {
		mapPayments += p
	}
	for _, r := range out.Revenues {
		mapRevenues += r
	}
	if diff := mapPayments - payments; diff > tolerance || diff < -tolerance {
		report("books", "payments map (%v) disagrees with matches (%v)", mapPayments, payments)
	}
	if diff := mapRevenues - revenues; diff > tolerance || diff < -tolerance {
		report("books", "revenues map (%v) disagrees with matches (%v)", mapRevenues, revenues)
	}
	if diff := out.TotalPayments() - out.TotalRevenues(); diff > tolerance || diff < -tolerance {
		report("budget-balance", "payments %v != revenues %v", out.TotalPayments(), out.TotalRevenues())
	}
	return violations
}
