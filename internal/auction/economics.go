// Package auction implements DeCloud's double auction mechanism A
// (Section IV): the per-cluster economic normalization, the greedy
// in-cluster allocation, the mini-auction grouping, the SBBA-style
// pricing with trade reduction, and block-seeded randomized exclusion.
// The mechanism is DSIC, strongly budget balanced, and individually
// rational; the package also provides the paper's non-truthful greedy
// benchmark (same pipeline without reduction or randomization).
package auction

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"decloud/internal/bidding"
	"decloud/internal/cluster"
	"decloud/internal/match"
	"decloud/internal/resource"
)

// EconRequest is a request with its cluster-normalized economics:
// ν_r (fraction of the cluster's virtual maximum it consumes) and
// v̂_r = b_r / (ν_r · d_r) (reported valuation per unit resource·time).
type EconRequest struct {
	Request *bidding.Request
	Nu      float64
	VHat    float64
	d       *dense // the EconCluster's own copy of the index row (ownRows)
}

// dense is an order's quantities and kind bits over the block's kind
// table: bit i%64 of mask word i/64 is set iff row[i] > 0.
type dense struct {
	row  []float64
	mask []uint64
}

// EconOffer is an offer with its cluster-normalized economics:
// ν_o = ‖ρ_o‖₂/‖M_CL‖₂ and ĉ_o = b_o / (ν_o · (t_o⁺ − t_o⁻)).
type EconOffer struct {
	Offer *bidding.Offer
	Nu    float64
	CHat  float64
	d     *dense // see EconRequest
}

// EconCluster carries a cluster's normalized requests and offers, sorted
// for the McAfee-style ranking: requests by v̂ descending, offers by ĉ
// ascending (ties by submission time, then ID — Section IV-D's tie rule,
// which removes any incentive to delay submission).
type EconCluster struct {
	Cluster  *cluster.Cluster
	Scale    *resource.Scale // the virtual maximum M_CL
	Critical map[resource.Kind]bool
	Requests []EconRequest
	Offers   []EconOffer
	rows     *scaleRows // M_CL over the index's kind table; nil on the map path
}

// scaleRows is M_CL over the block's kind table: its row, the common
// kinds K_CL (exactly where the row is positive), the critical kinds
// and ‖M_CL‖₂ summed in sorted kind order.
type scaleRows struct {
	max          []float64
	common, crit []uint64
	denom        float64
}

// fraction is Scale.Fraction over a dense row: Σ q² over the row's
// positive kinds known to M_CL, ascending bit = sorted kind order.
func (s *scaleRows) fraction(mask []uint64, row []float64) float64 {
	if s.denom <= 0 {
		return 0
	}
	var sum float64
	for w, m := range mask {
		for m &= s.common[w]; m != 0; m &= m - 1 {
			if q := row[w*64+bits.TrailingZeros64(m)]; q > 0 {
				sum += q * q
			}
		}
	}
	return min(math.Sqrt(sum)/s.denom, 1)
}

// nu is NuOf over a dense row: the larger of φ and ν_CR, the largest
// share of a critical kind M_CL knows (a max, so order is immaterial).
// A kind outside mask holds nothing, so it cannot raise ν_CR above 0.
func (s *scaleRows) nu(mask []uint64, row []float64) float64 {
	var cf float64
	for w, m := range mask {
		for m &= s.crit[w] & s.common[w]; m != 0; m &= m - 1 {
			k := w*64 + bits.TrailingZeros64(m)
			if f := row[k] / s.max[k]; f > cf {
				cf = f
			}
		}
	}
	return math.Max(min(cf, 1), s.fraction(mask, row))
}

// ComputeEconomics derives the cluster's common resource types K_CL, the
// virtual maximum M_CL, the critical set K_CR, and the normalized
// valuations and costs of Section IV-C. Orders whose normalization
// degenerates (ν = 0: no common resource with the cluster) are dropped.
func ComputeEconomics(cl *cluster.Cluster, critical map[resource.Kind]bool) *EconCluster {
	// K_CL = (∪_r K_r) ∩ (∪_o K_o).
	reqKinds := make(map[resource.Kind]bool)
	for _, r := range cl.Requests {
		for _, k := range r.Resources.Kinds() {
			reqKinds[k] = true
		}
	}
	offKinds := make(map[resource.Kind]bool)
	for _, o := range cl.Offers {
		for _, k := range o.Resources.Kinds() {
			offKinds[k] = true
		}
	}
	common := make(map[resource.Kind]bool)
	for k := range reqKinds {
		if offKinds[k] {
			common[k] = true
		}
	}

	// M_CL: componentwise maximum over the cluster's offers, restricted
	// to K_CL.
	maxVec := make(resource.Vector)
	for _, o := range cl.Offers {
		for k, q := range o.Resources {
			if common[k] && q > maxVec[k] {
				maxVec[k] = q
			}
		}
	}
	scale := resource.NewScale(maxVec)

	// K_CR: the default critical kinds plus every kind demanded by ALL
	// requests of the cluster.
	crit := make(map[resource.Kind]bool)
	if critical == nil {
		critical = resource.DefaultCritical()
	}
	for k := range critical {
		crit[k] = true
	}
	inAll := make(map[resource.Kind]int)
	for _, r := range cl.Requests {
		for _, k := range r.Resources.Kinds() {
			inAll[k]++
		}
	}
	for k, n := range inAll {
		if n == len(cl.Requests) {
			crit[k] = true
		}
	}

	ec := &EconCluster{Cluster: cl, Scale: scale, Critical: crit}
	for _, o := range cl.Offers {
		nu := scale.Fraction(o.Resources)
		if nu <= 0 || o.Window() <= 0 {
			continue
		}
		ec.Offers = append(ec.Offers, EconOffer{
			Offer: o,
			Nu:    nu,
			CHat:  o.Bid / (nu * float64(o.Window())),
		})
	}
	for _, r := range cl.Requests {
		nu := math.Max(scale.CriticalFraction(r.Resources, crit), scale.Fraction(r.Resources))
		if nu <= 0 || r.Duration <= 0 {
			continue
		}
		ec.Requests = append(ec.Requests, EconRequest{
			Request: r,
			Nu:      nu,
			VHat:    r.Bid / (nu * float64(r.Duration)),
		})
	}
	sortEcon(ec)
	return ec
}

// sortEcon applies Section IV-D's McAfee-style ranking with the
// submission-time tie rule: requests by v̂ descending, offers by ĉ
// ascending.
func sortEcon(ec *EconCluster) {
	// Both comparators are total orders (IDs are unique), so the stable /
	// unstable distinction cannot change the result.
	slices.SortFunc(ec.Requests, func(a, b EconRequest) int {
		switch {
		case a.VHat > b.VHat:
			return -1
		case a.VHat < b.VHat:
			return 1
		}
		return cmp.Or(cmp.Compare(a.Request.Submitted, b.Request.Submitted), cmp.Compare(a.Request.ID, b.Request.ID))
	})
	slices.SortFunc(ec.Offers, func(a, b EconOffer) int {
		switch {
		case a.CHat < b.CHat:
			return -1
		case a.CHat > b.CHat:
			return 1
		}
		return cmp.Or(cmp.Compare(a.Offer.Submitted, b.Offer.Submitted), cmp.Compare(a.Offer.ID, b.Offer.ID))
	})
}

// ComputeEconomicsIndexed is ComputeEconomics over the block's matching
// index: K_CL, M_CL, and K_CR come from kind-bitmask unions and
// intersections, and the ν sums run over dense rows in ascending kind
// index — the same sorted-kind order resource.Vector.Kinds() yields — so
// every float is bit-identical to the map-walking reference (the block
// outcome is consensus-critical). Masks are MaskWords() words wide —
// wide blocks (> 64 distinct kinds) take the same path, iterating words
// ascending and bits ascending, which is still globally ascending kind
// order. ix must be the index the cluster was built over; the cluster
// keeps its own copies of its members' rows (ownRows).
func ComputeEconomicsIndexed(cl *cluster.Cluster, critical map[resource.Kind]bool, ix *match.Index) *EconCluster {
	kinds := ix.Kinds()
	nw := ix.MaskWords()
	nr := len(cl.Requests)
	ds := ownRows(ix, cl.Requests, cl.Offers)
	reqD, offD := ds[:nr], ds[nr:]
	reqUnion := make([]uint64, nw)
	for _, d := range reqD {
		for w, mw := range d.mask {
			reqUnion[w] |= mw
		}
	}
	offUnion := make([]uint64, nw)
	for _, d := range offD {
		for w, mw := range d.mask {
			offUnion[w] |= mw
		}
	}

	// K_CL = (∪_r K_r) ∩ (∪_o K_o); M_CL = componentwise offer maximum
	// restricted to it. Every common bit has a positive offer quantity,
	// so M_CL is positive exactly on K_CL.
	common := make([]uint64, nw)
	ncommon := 0
	for w := range common {
		common[w] = reqUnion[w] & offUnion[w]
		ncommon += bits.OnesCount64(common[w])
	}
	maxRow := make([]float64, len(kinds))
	for _, d := range offD {
		for w := 0; w < nw; w++ {
			base := w * 64
			for m := d.mask[w] & common[w]; m != 0; m &= m - 1 {
				k := base + bits.TrailingZeros64(m)
				if q := d.row[k]; q > maxRow[k] {
					maxRow[k] = q
				}
			}
		}
	}
	maxVec := make(resource.Vector, ncommon)
	var dsum float64
	for w := 0; w < nw; w++ {
		base := w * 64
		for m := common[w]; m != 0; m &= m - 1 {
			k := base + bits.TrailingZeros64(m)
			maxVec[kinds[k]] = maxRow[k]
			dsum += maxRow[k] * maxRow[k]
		}
	}
	denom := math.Sqrt(dsum) // ‖M_CL‖₂, summed in sorted kind order

	// K_CR: the base critical kinds plus every kind demanded by ALL
	// requests (the AND of the request masks).
	crit := make(map[resource.Kind]bool)
	if critical == nil {
		critical = resource.DefaultCritical()
	}
	for k := range critical {
		crit[k] = true
	}
	if nr > 0 {
		inAll := append([]uint64(nil), reqD[0].mask...)
		for _, d := range reqD[1:] {
			for w, mw := range d.mask {
				inAll[w] &= mw
			}
		}
		for w := 0; w < nw; w++ {
			base := w * 64
			for m := inAll[w]; m != 0; m &= m - 1 {
				crit[kinds[base+bits.TrailingZeros64(m)]] = true
			}
		}
	}
	critMask := make([]uint64, nw)
	for i, k := range kinds {
		if crit[k] {
			critMask[i/64] |= 1 << uint(i%64)
		}
	}

	rows := &scaleRows{max: maxRow, common: common, crit: critMask, denom: denom}
	ec := &EconCluster{Cluster: cl, Scale: resource.NewScale(maxVec), Critical: crit, rows: rows}
	ec.Requests, ec.Offers = make([]EconRequest, 0, len(cl.Requests)), make([]EconOffer, 0, len(cl.Offers))
	for i, o := range cl.Offers {
		nu := rows.fraction(offD[i].mask, offD[i].row)
		if nu <= 0 || o.Window() <= 0 {
			continue
		}
		ec.Offers = append(ec.Offers, EconOffer{
			Offer: o,
			Nu:    nu,
			CHat:  o.Bid / (nu * float64(o.Window())),
			d:     &offD[i],
		})
	}
	for i, r := range cl.Requests {
		nu := rows.nu(reqD[i].mask, reqD[i].row)
		if nu <= 0 || r.Duration <= 0 {
			continue
		}
		ec.Requests = append(ec.Requests, EconRequest{
			Request: r,
			Nu:      nu,
			VHat:    r.Bid / (nu * float64(r.Duration)),
			d:       &reqD[i],
		})
	}
	sortEcon(ec)
	return ec
}

// ownRows copies the index rows and kind masks of reqs, then offs, into
// memory the caller owns. The index is epoch scratch (a book Resets its
// match.IndexScratch every clear) while PrepassCache keeps EconClusters
// across clears, so a retained cluster must hold nothing that aliases
// the index (DESIGN §14.2). An order the index does not know is a caller
// bug (a cluster built over another block), not block content.
func ownRows(ix *match.Index, reqs []*bidding.Request, offs []*bidding.Offer) []dense {
	nk, nw, n := len(ix.Kinds()), ix.MaskWords(), len(reqs)+len(offs)
	ds, rows, masks := make([]dense, n), make([]float64, n*nk), make([]uint64, n*nw)
	for i := range ds {
		row, m, ok := []float64(nil), []uint64(nil), false
		if i < len(reqs) {
			row, m, ok = ix.RequestRow(reqs[i])
		} else {
			row, m, ok = ix.OfferRow(offs[i-len(reqs)])
		}
		if !ok {
			panic("auction: a cluster member is not in the block index")
		}
		ds[i] = dense{row: rows[i*nk : (i+1)*nk : (i+1)*nk], mask: masks[i*nw : (i+1)*nw : (i+1)*nw]}
		copy(ds[i].row, row)
		copy(ds[i].mask, m)
	}
	return ds
}

// bindRows gives the members of a map-path EconCluster (ComputeEconomics)
// their own rows, so the dense capacity model can pack it.
func (ec *EconCluster) bindRows(ix *match.Index) {
	reqs := make([]*bidding.Request, len(ec.Requests))
	for i, er := range ec.Requests {
		reqs[i] = er.Request
	}
	offs := make([]*bidding.Offer, len(ec.Offers))
	for i, eo := range ec.Offers {
		offs[i] = eo.Offer
	}
	ds := ownRows(ix, reqs, offs)
	for i := range ec.Requests {
		ec.Requests[i].d = &ds[i]
	}
	for i := range ec.Offers {
		ec.Offers[i].d = &ds[len(reqs)+i]
	}
}

// NuOf recomputes ν for an arbitrary granted resource vector against this
// cluster's scale and critical set — used to price partially granted
// (flexible) matches by what the client actually receives.
func (ec *EconCluster) NuOf(granted resource.Vector) float64 {
	return math.Max(ec.Scale.CriticalFraction(granted, ec.Critical), ec.Scale.Fraction(granted))
}
