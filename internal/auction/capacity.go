package auction

import (
	"math/bits"
	"slices"

	"decloud/internal/bidding"
	"decloud/internal/resource"
)

// eachKind calls fn for the set bits of mask in ascending kind index:
// the sorted order resource.Vector.Kinds() yields, so dense sums keep
// the map path's accumulation order. Hot loops spell it out instead.
func eachKind(mask []uint64, fn func(k int)) {
	for w, m := range mask {
		for ; m != 0; m &= m - 1 {
			fn(w*64 + bits.TrailingZeros64(m))
		}
	}
}

// aggregate is the pack loop's capacity model: the paper's Const. 7
// over dense rows. The commodity is resource·time, with instantaneous
// caps per grant but no check that concurrent grants fit together at
// every moment, so two jobs whose windows force them to overlap can both
// fit on a machine that could run only one of them at a time. It keeps
// one remaining resource·time row per offer, keyed by the offer (one
// pointer per ID within a clear, DESIGN §7; an offer shared by several
// clusters draws on one row) and materialized on first use as
// ρ_{o,k}·(t_o⁺−t_o⁻); a grant is a row over the block's kind
// table, meaningful at the request's kind bits only. Its arithmetic is
// the map Tracker's, operation for operation: TryGrant is
// Tracker.TryGrant's min/flex test, Commit is SubScaledInPlace's
// multiply-subtract-clamp, so every grant and every remaining quantity
// is bit-identical to the map path's.
type aggregate struct {
	at  map[*bidding.Offer]int // offset of the offer's row in rem
	rem []float64
	g   []float64 // TryGrant's scratch row
	log []undo    // the writes since begin
}

type undo struct { // a logged write: rem[i] held old before it
	i   int
	old float64
}

func newAggregate() *aggregate {
	return &aggregate{at: make(map[*bidding.Offer]int)}
}

// TryGrant computes the grant offer eo can give request er; ok is false
// when it is infeasible. The row is c's scratch, valid until the next
// TryGrant; TryGrant commits nothing.
func (c *aggregate) TryGrant(er EconRequest, eo EconOffer) (granted []float64, ok bool) {
	r, o := er.Request, eo.Offer
	if !bidding.TimeCompatible(r, o) || !r.WithinReach(o) {
		return nil, false
	}
	i := c.row(eo) // before reading c.rem, which it may grow
	need, inst, rem := er.d.row, eo.d.row, c.rem[i:]
	c.g = slices.Grow(c.g[:0], len(need))[:len(need)]
	flex, dur := r.Flex(), float64(r.Duration)
	positive := false
	for w, m := range er.d.mask {
		for ; m != 0; m &= m - 1 {
			k := w*64 + bits.TrailingZeros64(m)
			v := need[k]
			if inst[k] < v {
				v = inst[k]
			}
			if byTime := rem[k] / dur; byTime < v {
				v = byTime
			}
			if v < float64(need[k]*flex)-1e-9 {
				return nil, false
			}
			positive = positive || v > 0
			c.g[k] = v
		}
	}
	if !positive {
		return nil, false
	}
	return c.g, true
}

// row returns the offset of the offer's remaining row in rem,
// materializing it on first use, as the map Tracker does.
func (c *aggregate) row(eo EconOffer) int {
	i, ok := c.at[eo.Offer]
	if !ok {
		i = len(c.rem)
		c.at[eo.Offer] = i
		window := float64(eo.Offer.Window())
		for _, q := range eo.d.row {
			c.rem = append(c.rem, q*window)
		}
	}
	return i
}

// Commit records a grant produced by TryGrant.
func (c *aggregate) Commit(er EconRequest, eo EconOffer, g []float64) {
	i, d := c.row(eo), float64(er.Request.Duration)
	for w, m := range er.d.mask {
		for ; m != 0; m &= m - 1 {
			k := w*64 + bits.TrailingZeros64(m)
			c.log = append(c.log, undo{i: i + k, old: c.rem[i+k]})
			v := c.rem[i+k] - float64(g[k]*d)
			if v < 0 {
				v = 0
			}
			c.rem[i+k] = v
		}
	}
}

// begin starts a trial; end(true) undoes every commit since, newest
// first, restoring the exact prior state, and end(false) keeps them.
func (c *aggregate) begin() { c.log = c.log[:0] }

func (c *aggregate) end(revert bool) {
	for j := len(c.log) - 1; revert && j >= 0; j-- {
		c.rem[c.log[j].i] = c.log[j].old
	}
	c.log = c.log[:0]
}

// grantVector builds the resource.Vector of a trade's grant: one entry
// per kind the request demands, as Tracker.TryGrant fills it.
func grantVector(kinds []resource.Kind, er EconRequest, g []float64) resource.Vector {
	v := make(resource.Vector, len(er.Request.Resources))
	eachKind(er.d.mask, func(k int) { v[kinds[k]] = g[k] })
	return v
}

// grantFraction is Fraction (Eq. 6) of a dense grant: the sum runs over
// the granted kinds the offer provides, in ascending kind order — the
// sorted order Fraction iterates — so φ is bit-identical.
func grantFraction(er EconRequest, eo EconOffer, g []float64) float64 {
	o := eo.Offer
	if o.Window() <= 0 {
		return 0
	}
	var sum float64
	var n int
	for w, m := range er.d.mask {
		for m &= eo.d.mask[w]; m != 0; m &= m - 1 {
			if k := w*64 + bits.TrailingZeros64(m); g[k] > 0 {
				sum += g[k] / eo.d.row[k]
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(er.Request.Duration) / float64(o.Window()) * sum / float64(n)
}
