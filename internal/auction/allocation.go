package auction

import (
	"slices"

	"decloud/internal/bidding"
	"decloud/internal/resource"
)

// Tracker accounts for the remaining capacity of every offer across all
// clusters and mini-auctions of a block. Capacity follows the paper's
// Const. 7 semantics: the commodity is resource·time — an offer provides
// ρ_{o,k} · (t_o⁺ − t_o⁻) units of each kind k, a granted request
// consumes granted_k · d_r, and the sum of allocated fractions per kind
// never exceeds 1. Instantaneous grants are additionally capped at
// ρ_{o,k} (Const. 8).
type Tracker struct {
	remaining map[bidding.OrderID]resource.Vector
}

// NewTracker returns an empty tracker; capacity is materialized lazily
// per offer on first use.
func NewTracker() *Tracker {
	return &Tracker{remaining: make(map[bidding.OrderID]resource.Vector)}
}

func (t *Tracker) capacity(o *bidding.Offer) resource.Vector {
	if rem, ok := t.remaining[o.ID]; ok {
		return rem
	}
	rem := o.Resources.Scale(float64(o.Window()))
	t.remaining[o.ID] = rem
	return rem
}

// Clone deep-copies the tracker, letting callers trial-pack without
// committing.
func (t *Tracker) Clone() *Tracker {
	c := NewTracker()
	for id, v := range t.remaining {
		c.remaining[id] = v.Clone()
	}
	return c
}

// TryGrant computes the resource vector offer o can grant request r right
// now: per requested kind, the minimum of the requested amount, the
// offer's instantaneous capacity, and what the remaining resource·time
// budget supports for d_r. It returns nil when the grant would fall below
// the request's flexibility threshold on any kind, or the windows are
// incompatible. TryGrant does not mutate the tracker.
//
// The mechanism packs through the dense aggregate model (capacity.go),
// whose arithmetic is this one's; the map Tracker is the baseline
// solver's and the dense model's test oracle.
func (t *Tracker) TryGrant(r *bidding.Request, o *bidding.Offer) resource.Vector {
	if !bidding.TimeCompatible(r, o) || !r.WithinReach(o) {
		return nil
	}
	rem := t.capacity(o)
	granted := make(resource.Vector, len(r.Resources))
	for k, need := range r.Resources {
		if need <= 0 {
			continue
		}
		g := need
		if inst := o.Resources[k]; inst < g {
			g = inst
		}
		if byTime := rem[k] / float64(r.Duration); byTime < g {
			g = byTime
		}
		if g < float64(need*r.Flex())-1e-9 {
			return nil
		}
		granted[k] = g
	}
	if granted.IsZero() {
		return nil
	}
	return granted
}

// Commit deducts a grant from the offer's remaining capacity, mutating
// the stored vector in place.
func (t *Tracker) Commit(o *bidding.Offer, granted resource.Vector, duration int64) {
	t.capacity(o).SubScaledInPlace(granted, float64(duration))
}

// Assignment is one request placed on one offer with a concrete grant.
type Assignment struct {
	Req  EconRequest
	Off  EconOffer
	frac float64   // φ of the grant (Eq. 6)
	g    []float64 // the dense grant
}

// packer is the reusable state of a packing loop: the capacity it packs
// against, the last pack's assignments, and the store of their grants,
// valid until the next pack (a trade's Granted vector is built from its
// grant when recorded).
type packer struct {
	tr     *aggregate
	asg    []Assignment
	grants []float64
}

func newPacker() *packer { return &packer{tr: newAggregate()} }

// pack greedily places the cluster's requests onto its offers, leaves
// the assignments in pk.asg, and counts the eligible requests it tried:
// those neither taken before their turn nor refused by reqOK.
//
//   - reqOrder lists indexes into ec.Requests in the order to try; nil
//     means natural order (v̂ descending).
//   - offOrder lists indexes into ec.Offers in the order to try; nil
//     means natural order (ĉ ascending). The mechanism's final phase
//     passes a bid-independent random permutation here — the paper's
//     "exclude redundant offers randomly" (Section IV-D): if which offers
//     get to serve depended on the reported cost, an idle provider could
//     underbid its way into the allocation and profit at the clearing
//     price.
//   - reqOK / offOK filter eligibility (nil means all eligible).
//   - pairOK filters request↔offer pairs (nil admits all); the mechanism
//     uses it for the provider-side reputation gate of Section III-B.
//   - taken marks requests already allocated elsewhere in the block, by
//     index position (dense.id); it is updated as requests are placed.
//     nil packs the cluster alone (the pre-pass: each request is
//     visited once).
//   - pk.tr supplies shared capacity; successful grants are committed.
//
// A request is placed on the first eligible offer (in offOrder) that is
// profitable for it (v̂_r ≥ ĉ_o) and can grant it within the request's
// flexibility.
func (ec *EconCluster) pack(
	pk *packer,
	taken []bool,
	reqOK func(EconRequest) bool,
	offOK func(EconOffer) bool,
	pairOK func(EconRequest, EconOffer) bool,
	reqOrder []int,
	offOrder []int,
) (eligible int) {
	nr := len(ec.Requests)
	if reqOrder != nil {
		nr = len(reqOrder)
	}
	no := len(ec.Offers)
	if offOrder != nil {
		no = len(offOrder)
	}
	tr := pk.tr
	pk.asg, pk.grants = slices.Grow(pk.asg[:0], nr), pk.grants[:0]
	for i := 0; i < nr; i++ {
		ri := i
		if reqOrder != nil {
			ri = reqOrder[i]
		}
		er := ec.Requests[ri]
		if taken != nil && taken[er.d.id] {
			continue
		}
		if reqOK != nil && !reqOK(er) {
			continue
		}
		eligible++
		for j := 0; j < no; j++ {
			oi := j
			if offOrder != nil {
				oi = offOrder[j]
			}
			eo := ec.Offers[oi]
			if offOK != nil && !offOK(eo) {
				continue
			}
			if pairOK != nil && !pairOK(er, eo) {
				continue
			}
			if er.VHat < eo.CHat {
				// Unprofitable pairing; with a custom offer order later
				// offers may still be cheaper, so keep scanning.
				continue
			}
			g, ok := tr.TryGrant(er, eo)
			if !ok {
				continue
			}
			tr.Commit(er, eo, g)
			if taken != nil {
				taken[er.d.id] = true
			}
			// Growth moves later grants to a new array and leaves the
			// earlier ones where their assignments point.
			pk.grants = append(pk.grants, g...)
			n := len(pk.grants)
			pk.asg = append(pk.asg, Assignment{
				Req: er, Off: eo, frac: grantFraction(er, eo, g), g: pk.grants[n-len(g) : n : n],
			})
			break
		}
	}
	return eligible
}

// Fraction computes φ_{(r,o)} (Eq. 6) for a concrete grant: the time
// share d_r/(t_o⁺−t_o⁻) times the mean granted share over the kinds the
// offer actually provides.
func Fraction(granted resource.Vector, r *bidding.Request, o *bidding.Offer) float64 {
	if o.Window() <= 0 {
		return 0
	}
	// Sorted iteration: φ feeds payments, which verifying miners must
	// reproduce bit-for-bit.
	var buf [16]resource.Kind
	var sum float64
	var n int
	for _, k := range granted.AppendKinds(buf[:0]) {
		if cap := o.Resources[k]; cap > 0 {
			sum += granted[k] / cap
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(r.Duration) / float64(o.Window()) * sum / float64(n)
}
