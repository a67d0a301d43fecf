package auction

import (
	"math/bits"
	"slices"

	"decloud/internal/bidding"
	"decloud/internal/resource"
)

// Capacity abstracts how offer capacity is accounted during packing.
// Two models are provided:
//
//   - the aggregate model (NewAggregateCapacity): the paper's Const. 7
//     semantics — the commodity is resource·time, with instantaneous
//     caps per grant but no check that concurrent placements fit
//     together at every moment.
//   - IntervalTracker (exact): every grant is scheduled at a concrete
//     start time, and the sum of concurrent grants never exceeds the
//     machine at ANY instant. Stricter than the paper's model; an
//     extension for callers that need physically executable schedules.
//
// Both work on the dense rows every EconCluster owns (ownRows): a grant
// is a row over the block's kind table, meaningful at the request's kind
// bits only.
type Capacity interface {
	// TryGrant computes the grant offer eo can give request er and the
	// start time it would be scheduled at. ok is false when infeasible.
	// The row is the model's scratch, valid until the next TryGrant.
	// TryGrant must not mutate state.
	TryGrant(er EconRequest, eo EconOffer) (granted []float64, start int64, ok bool)
	// Commit records a grant produced by TryGrant.
	Commit(er EconRequest, eo EconOffer, granted []float64, start int64)
	// begin starts a trial; end(true) undoes every commit since, newest
	// first, restoring the exact prior state, and end(false) keeps them.
	begin()
	end(revert bool)
}

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

// aggregate is the aggregate model over dense rows: one remaining
// resource·time row per offer, keyed by order ID (an offer shared by
// several clusters draws on one row) and materialized on first use as
// ρ_{o,k}·(t_o⁺−t_o⁻). Its arithmetic is the map Tracker's, operation
// for operation: TryGrant is Tracker.TryGrant's min/flex test, Commit is
// SubScaledInPlace's multiply-subtract-clamp, so every grant and every
// remaining quantity is bit-identical to the map path's.
type aggregate struct {
	at  map[bidding.OrderID]int // offset of the offer's row in rem
	rem []float64
	g   []float64 // TryGrant's scratch row
	log []undo    // the writes since begin
}

type undo struct { // a logged write: rem[i] held old before it
	i   int
	old float64
}

// NewAggregateCapacity returns the paper-faithful resource·time model.
func NewAggregateCapacity() Capacity {
	return &aggregate{at: make(map[bidding.OrderID]int)}
}

func (c *aggregate) TryGrant(er EconRequest, eo EconOffer) ([]float64, int64, bool) {
	r, o := er.Request, eo.Offer
	if !bidding.TimeCompatible(r, o) || !r.WithinReach(o) {
		return nil, 0, false
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
			if v < need[k]*flex-1e-9 {
				return nil, 0, false
			}
			positive = positive || v > 0
			c.g[k] = v
		}
	}
	if !positive {
		return nil, 0, false
	}
	return c.g, r.Start, true
}

// row returns the offset of the offer's remaining row in rem,
// materializing it on first use, as the map Tracker does.
func (c *aggregate) row(eo EconOffer) int {
	i, ok := c.at[eo.Offer.ID]
	if !ok {
		i = len(c.rem)
		c.at[eo.Offer.ID] = i
		window := float64(eo.Offer.Window())
		for _, q := range eo.d.row {
			c.rem = append(c.rem, q*window)
		}
	}
	return i
}

func (c *aggregate) Commit(er EconRequest, eo EconOffer, g []float64, _ int64) {
	i, d := c.row(eo), float64(er.Request.Duration)
	for w, m := range er.d.mask {
		for ; m != 0; m &= m - 1 {
			k := w*64 + bits.TrailingZeros64(m)
			c.log = append(c.log, undo{i: i + k, old: c.rem[i+k]})
			v := c.rem[i+k] - g[k]*d
			if v < 0 {
				v = 0
			}
			c.rem[i+k] = v
		}
	}
}

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

// placement is one scheduled grant on a machine; res is a dense row,
// zero outside the placed request's kinds.
type placement struct {
	start, end int64
	res        []float64
}

// IntervalTracker schedules grants at concrete times with exact
// instantaneous capacity accounting per offer.
type IntervalTracker struct {
	placed map[bidding.OrderID][]placement
	log    []bidding.OrderID // offers committed to since begin
}

// NewIntervalCapacity returns the exact-scheduling model.
func NewIntervalCapacity() Capacity {
	return &IntervalTracker{placed: make(map[bidding.OrderID][]placement)}
}

// TryGrant finds the earliest start time in the feasible window at which
// the request fits alongside every already-scheduled grant, instant by
// instant. Candidate start times are the window opening plus the end
// times of existing placements (a classic earliest-fit argument: if any
// feasible start exists, one of these is feasible).
func (it *IntervalTracker) TryGrant(er EconRequest, eo EconOffer) ([]float64, int64, bool) {
	r, o := er.Request, eo.Offer
	if !bidding.TimeCompatible(r, o) || !r.WithinReach(o) {
		return nil, 0, false
	}
	lo := max(r.Start, o.Start)
	latest := min(r.End, o.End) - r.Duration
	if latest < lo {
		return nil, 0, false
	}

	existing := it.placed[o.ID]
	candidates := []int64{lo}
	for _, p := range existing {
		if p.end >= lo && p.end <= latest {
			candidates = append(candidates, p.end)
		}
	}
	slices.Sort(candidates)

	nk, flex := len(er.d.row), r.Flex()
	g, peak, usage := make([]float64, nk), make([]float64, nk), make([]float64, nk)
	for _, s := range candidates {
		// Peak concurrent usage over [s, s+d_r) per demanded kind, read
		// at s and just after every placement start inside the window;
		// the sums run in placement order, as Vector.Add did.
		points := []int64{s}
		for _, p := range existing {
			if p.start > s && p.start < s+r.Duration {
				points = append(points, p.start)
			}
		}
		clear(peak)
		for _, t := range points {
			clear(usage)
			for _, p := range existing {
				if p.start <= t && t < p.end {
					eachKind(er.d.mask, func(k int) { usage[k] += p.res[k] })
				}
			}
			eachKind(er.d.mask, func(k int) { peak[k] = max(peak[k], usage[k]) })
		}
		fits, positive := true, false
		eachKind(er.d.mask, func(k int) {
			need := er.d.row[k]
			g[k] = min(need, eo.d.row[k]-peak[k])
			fits = fits && g[k] >= need*flex-1e-9
			positive = positive || g[k] > 0
		})
		if fits && positive {
			return g, s, true
		}
	}
	return nil, 0, false
}

// Commit schedules the grant.
func (it *IntervalTracker) Commit(er EconRequest, eo EconOffer, g []float64, start int64) {
	res := make([]float64, len(g))
	eachKind(er.d.mask, func(k int) { res[k] = g[k] })
	id := eo.Offer.ID
	it.placed[id] = append(it.placed[id], placement{start: start, end: start + er.Request.Duration, res: res})
	it.log = append(it.log, id)
}

func (it *IntervalTracker) begin() { it.log = it.log[:0] }

func (it *IntervalTracker) end(revert bool) {
	for j := len(it.log) - 1; revert && j >= 0; j-- {
		id := it.log[j]
		it.placed[id] = it.placed[id][:len(it.placed[id])-1]
	}
	it.log = it.log[:0]
}
