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
	"encoding/binary"
	"maps"
	"math"
	"math/bits"
	"slices"

	"decloud/internal/bidding"
	"decloud/internal/cluster"
	"decloud/internal/match"
	"decloud/internal/par"
	"decloud/internal/resource"
)

// EconRequest is a request with its cluster-normalized economics:
// ν_r (fraction of the cluster's virtual maximum it consumes) and
// v̂_r = b_r / (ν_r · d_r) (reported valuation per unit resource·time).
type EconRequest struct {
	Request *bidding.Request
	Nu      float64
	VHat    float64
	d       *dense // the order's row: the index's, or its table's copy
}

// dense is an order's quantities and kind bits over the block's kind
// table: bit i%64 of mask word i/64 is set iff row[i] > 0. A request's
// id is its position in the index of the clear that reads it (renumber).
type dense struct {
	row  []float64
	mask []uint64
	id   int32
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
	rows     *scaleRows   // M_CL over the index's kind table; nil on the map path
	table    *EconCluster // the key's ranking, holding the members' rows; nil on the map path
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
				sum += float64(q * q)
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
		if c := cmp.Compare(b.VHat, a.VHat); c != 0 {
			return c
		}
		return cmp.Or(cmp.Compare(a.Request.Submitted, b.Request.Submitted), cmp.Compare(a.Request.ID, b.Request.ID))
	})
	slices.SortFunc(ec.Offers, func(a, b EconOffer) int {
		if c := cmp.Compare(a.CHat, b.CHat); c != 0 {
			return c
		}
		return cmp.Or(cmp.Compare(a.Offer.Submitted, b.Offer.Submitted), cmp.Compare(a.Offer.ID, b.Offer.ID))
	})
}

// economicsByScale is ComputeEconomics for a batch of clusters over
// the block's index, bit-identical to it: the ν sums run over dense rows
// in ascending kind index, the sorted order Vector.Kinds() yields. An
// order's ν and v̂ (ĉ) depend only on the order and on its cluster's
// (K_CL, M_CL, K_CR), which most clusters share; so each such key gets
// one table, the union of its clusters' members scored once and ranked
// once by sortEcon's total order. A cluster's members are a subset of
// the ranking, already in the order a sort of them alone would give:
// the cluster sets their ranks in a bitset and sweeps it, and shares
// the key's Scale, Critical and scaleRows. Rows alias ix unless keep is
// set; then each table copies its members' rows once, since the prepass
// cache keeps EconClusters past the index's epoch (DESIGN §14.2). It
// returns the economics in cluster order and the ν evaluations made.
func economicsByScale(clusters []*cluster.Cluster, critical map[resource.Kind]bool, ix *match.Index, keep bool, workers int) ([]*EconCluster, int) {
	if critical == nil {
		critical = resource.DefaultCritical()
	}
	base := make([]uint64, ix.MaskWords())
	for i, k := range ix.Kinds() {
		if critical[k] {
			base[i/64] |= 1 << uint(i%64)
		}
	}
	// Per cluster: its scale, and its members' positions — requests,
	// then offers after every request of the index — turned into their
	// ranks in the key's table (-1: dropped, ν = 0 or no duration).
	n, nk, nw, total := len(clusters), len(ix.Kinds()), ix.MaskWords(), 0
	for _, cl := range clusters {
		total += len(cl.Requests) + len(cl.Offers)
	}
	scales, pos, flat := make([]scaleRows, n), make([][]int32, n), make([]int32, total)
	rows, masks := make([]float64, n*nk), make([]uint64, 2*n*nw)
	for c, cl := range clusters {
		m := len(cl.Requests) + len(cl.Offers)
		pos[c], flat = flat[:m:m], flat[m:]
		scales[c] = scaleRows{max: rows[c*nk : (c+1)*nk : (c+1)*nk], common: masks[2*c*nw : (2*c+1)*nw : (2*c+1)*nw], crit: masks[(2*c+1)*nw : (2*c+2)*nw : (2*c+2)*nw]}
	}
	par.ForEach(workers, n, func(c int) { scaleOf(clusters[c], ix, base, &scales[c], pos[c]) })
	tabs, members := make([]EconCluster, 0, n), make([][]int, 0, n) // tabs never grows: clusters point into it
	tabOf, byKey := make([]*EconCluster, n), make(map[string]int)
	var kb []byte
	for c := range scales {
		s := &scales[c]
		kb = s.appendKey(kb[:0])
		t, ok := byKey[string(kb)]
		if !ok {
			t, byKey[string(kb)] = len(tabs), len(tabs)
			tabs, members = append(tabs, EconCluster{Critical: critical, rows: s}), append(members, nil)
		}
		tabOf[c], members[t] = &tabs[t], append(members[t], c)
	}
	nu, orders := 0, len(ix.Requests())+len(ix.Offers())
	seen, rank := make([]int32, orders), make([]int32, orders)
	for t := range tabs {
		nu += rankUnion(&tabs[t], int32(t+1), members[t], pos, ix, keep, seen, rank)
	}
	ecs, econ := make([]*EconCluster, n), make([]EconCluster, n)
	words := make([][]uint64, max(min(workers, n), 1))
	par.ForEachWorker(workers, n, func(w, c int) {
		t, nr := tabOf[c], len(clusters[c].Requests)
		econ[c] = EconCluster{Cluster: clusters[c], Scale: t.Scale, Critical: t.Critical, rows: t.rows, table: t,
			Requests: sweep(pos[c][:nr], t.Requests, &words[w]), Offers: sweep(pos[c][nr:], t.Offers, &words[w])}
		ecs[c] = &econ[c]
	})
	return ecs, nu
}

// scaleOf fills s with cluster cl's M_CL over the index's kind table,
// and pos with its members' positions. K_CL = (∪_r K_r) ∩ (∪_o K_o); M_CL is the
// componentwise offer maximum on it — positive exactly on K_CL, since an
// offer's row is positive exactly on its mask — with ‖M_CL‖₂ summed in
// sorted kind order; K_CR is base plus every kind all requests demand
// (the AND of their masks).
func scaleOf(cl *cluster.Cluster, ix *match.Index, base []uint64, s *scaleRows, pos []int32) {
	nr := len(cl.Requests)
	for j, r := range cl.Requests {
		p := position(ix.RequestIndex(r))
		pos[j] = int32(p)
		_, mask := ix.RequestRow(p)
		for w, m := range mask {
			if s.common[w] |= m; j > 0 {
				m &= s.crit[w]
			}
			s.crit[w] = m
		}
	}
	for j, o := range cl.Offers {
		p := position(ix.OfferIndex(o))
		pos[nr+j] = int32(len(ix.Requests()) + p)
		row, mask := ix.OfferRow(p)
		for w := range mask {
			for m := mask[w] & s.common[w]; m != 0; m &= m - 1 {
				k := w*64 + bits.TrailingZeros64(m)
				s.max[k] = max(s.max[k], row[k])
			}
		}
	}
	var dsum float64
	for w := range s.common {
		for m := s.common[w]; m != 0; m &= m - 1 {
			if k := w*64 + bits.TrailingZeros64(m); s.max[k] == 0 {
				s.common[w] &^= m & -m
			} else {
				dsum += float64(s.max[k] * s.max[k])
			}
		}
		s.crit[w] |= base[w]
	}
	s.denom = math.Sqrt(dsum)
}

// position passes an index position through; an order the index does
// not know is a caller bug (a cluster built over another block), not
// block content.
func position(p int, ok bool) int {
	if !ok {
		panic("auction: a cluster member is not in the block index")
	}
	return p
}

// appendKey appends the scale's exact encoding to b: K_CR and the bits
// of the M_CL row, which is positive exactly on K_CL.
func (s *scaleRows) appendKey(b []byte) []byte {
	for _, w := range s.crit {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	for _, q := range s.max {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(q))
	}
	return b
}

// rankUnion fills table t, whose rows are its key's scale, with the
// union of its clusters' members — scored, kept when ν > 0 and the
// duration positive, and ranked — and turns those clusters' member
// positions into ranks. seen and rank are scratch over the positions;
// stamp marks this table's visits. It returns the union's size: the ν
// evaluations.
func rankUnion(t *EconCluster, stamp int32, members []int, pos [][]int32, ix *match.Index, keep bool, seen, rank []int32) int {
	nr, kinds, size, reqs := len(ix.Requests()), ix.Kinds(), 0, 0
	for _, c := range members {
		size += len(pos[c])
	}
	union := make([]int32, 0, size)
	for _, c := range members {
		for _, p := range pos[c] {
			if seen[p] != stamp {
				seen[p], rank[p] = stamp, -1
				union = append(union, p)
				if p < int32(nr) {
					reqs++
				}
			}
		}
	}
	maxVec, crit := make(resource.Vector), maps.Clone(t.Critical)
	eachKind(t.rows.common, func(k int) { maxVec[kinds[k]] = t.rows.max[k] })
	eachKind(t.rows.crit, func(k int) { crit[kinds[k]] = true })
	t.Scale, t.Critical = resource.NewScale(maxVec), crit
	t.Requests, t.Offers = make([]EconRequest, 0, reqs), make([]EconOffer, 0, len(union)-reqs)

	ds := make([]dense, 0, len(union)) // never grows: members point into it
	var rowStore []float64
	var maskStore []uint64
	if keep {
		rowStore, maskStore = make([]float64, 0, len(union)*len(kinds)), make([]uint64, 0, len(union)*ix.MaskWords())
	}
	own := func(row []float64, mask []uint64, id int32) *dense {
		if keep {
			rowStore, maskStore = append(rowStore, row...), append(maskStore, mask...)
			row, mask = slices.Clip(rowStore[len(rowStore)-len(row):]), slices.Clip(maskStore[len(maskStore)-len(mask):])
		}
		ds = append(ds, dense{row: row, mask: mask, id: id})
		return &ds[len(ds)-1]
	}
	for _, p := range union {
		if p < int32(nr) {
			r := ix.Requests()[p]
			row, mask := ix.RequestRow(int(p))
			if nu := t.rows.nu(mask, row); nu > 0 && r.Duration > 0 {
				t.Requests = append(t.Requests, EconRequest{Request: r, Nu: nu, VHat: r.Bid / (nu * float64(r.Duration)), d: own(row, mask, p)})
			}
			continue
		}
		o := ix.Offers()[int(p)-nr]
		row, mask := ix.OfferRow(int(p) - nr)
		if nu := t.rows.fraction(mask, row); nu > 0 && o.Window() > 0 {
			t.Offers = append(t.Offers, EconOffer{Offer: o, Nu: nu, CHat: o.Bid / (nu * float64(o.Window())), d: own(row, mask, p)})
		}
	}
	sortEcon(t)
	for i, er := range t.Requests {
		p, _ := ix.RequestIndex(er.Request)
		rank[p] = int32(i)
	}
	for i, eo := range t.Offers {
		p, _ := ix.OfferIndex(eo.Offer)
		rank[nr+p] = int32(i)
	}
	for _, c := range members {
		for j, p := range pos[c] {
			pos[c][j] = rank[p]
		}
	}
	return len(union)
}

// sweep returns the entries of ranked at the listed ranks (-1: none), in
// rank order: it sets the ranks in a bitset and reads it ascending,
// leaving the bitset clear.
func sweep[E any](ranks []int32, ranked []E, words *[]uint64) []E {
	if n := (len(ranked) + 63) / 64; cap(*words) < n {
		*words = make([]uint64, n)
	}
	ws, kept := (*words)[:(len(ranked)+63)/64], 0
	for _, r := range ranks {
		if r >= 0 {
			ws[r/64] |= 1 << uint(r%64)
			kept++
		}
	}
	out := make([]E, 0, kept)
	for w, m := range ws {
		for ; m != 0; m &= m - 1 {
			out = append(out, ranked[w*64+bits.TrailingZeros64(m)])
		}
		ws[w] = 0
	}
	return out
}

// bindRows gives the members of a map-path EconCluster (ComputeEconomics)
// their index rows, so the dense capacity model can pack it.
func (ec *EconCluster) bindRows(ix *match.Index) {
	ds := make([]dense, len(ec.Requests)+len(ec.Offers))
	for i := range ec.Requests {
		p := position(ix.RequestIndex(ec.Requests[i].Request))
		ds[i].row, ds[i].mask = ix.RequestRow(p)
		ds[i].id, ec.Requests[i].d = int32(p), &ds[i]
	}
	for i := range ec.Offers {
		d := &ds[len(ec.Requests)+i]
		d.row, d.mask = ix.OfferRow(position(ix.OfferIndex(ec.Offers[i].Offer)))
		ec.Offers[i].d = d
	}
}

// renumber gives the table's requests their positions in ix, the index
// of a later clear that reuses the table's clusters (the prepass cache);
// a request no longer in the block gets -1.
func (t *EconCluster) renumber(ix *match.Index) {
	for _, er := range t.Requests {
		p, ok := ix.RequestIndex(er.Request)
		if !ok {
			p = -1
		}
		er.d.id = int32(p)
	}
}

// NuOf recomputes ν for an arbitrary granted resource vector against this
// cluster's scale and critical set — used to price partially granted
// (flexible) matches by what the client actually receives.
func (ec *EconCluster) NuOf(granted resource.Vector) float64 {
	return math.Max(ec.Scale.CriticalFraction(granted, ec.Critical), ec.Scale.Fraction(granted))
}
