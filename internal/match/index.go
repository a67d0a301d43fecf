package match

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"decloud/internal/arena"
	"decloud/internal/bidding"
	"decloud/internal/resource"
)

// Index is the per-block matching engine: every request and offer of the
// block is compiled once into dense, cache-friendly form so the Eq. 18
// best-offer phase — the O(requests × offers) hot path every verifying
// miner re-executes — does no per-pair map lookups, no per-pair
// allocations, and no full sorts.
//
// Precomputed per block:
//
//   - a canonical kind table (every resource kind with a positive
//     quantity anywhere in the block, sorted) assigning each kind a
//     small integer, so sparse resource.Vector maps become dense rows;
//   - a per-order kind bitmask: bit k set iff the order has a positive
//     quantity of kind k. K_r ∩ K_o = AND of mask words, replacing the
//     two map-allocating CommonKinds calls per pair. Masks are nw =
//     ⌈nk/64⌉ words wide, chosen once per block: blocks within 64 kinds
//     (nw == 1, the common case) run single-word scan loops, wider
//     blocks run the multi-word specialization — there is no per-probe
//     width dispatch and no reference fallback;
//   - normalized quantities ρ' = ρ/max_k (offers) and the clamped
//     request-side ρ', significance weights σ, and the exact
//     CoversFraction thresholds, all as dense rows;
//   - a time bucket: offer indexes sorted by availability start, so a
//     request without a reach only scans the prefix of offers with
//     t_o⁻ ≤ t_r⁻ (Const. 10) and the rest are pruned wholesale;
//   - a locality strip: offer indexes sorted by X, so a request with a
//     finite positive MaxDistance R only scans the offers whose X lies
//     within R of its own — a superset of the offers the distance test
//     accepts. The structural tests (Const. 10, 11, locality, Const. 8)
//     are then scalar compares against dense columns.
//
// Exactness: every arithmetic expression reproduces the reference path
// (Feasible + Quality in match.go) operation for operation — same
// divisions, same clamping, same accumulation order (ascending kind
// index = the sorted order CommonKinds yields; multi-word masks iterate
// words ascending, bits ascending, which is the same global kind order)
// — so scores and feasibility verdicts are bit-identical, not merely
// close. The paralleltest harness enforces byte-equality of whole-block
// Outcomes between this engine and the brute-force reference.
type Index struct {
	scale  *resource.Scale
	kinds  []resource.Kind
	kindOf map[resource.Kind]int
	nk     int
	nw     int // mask words per order: ⌈nk/64⌉ (1 when nk == 0)

	// scans counts offers considered by the top-k loop across the whole
	// block (the time prefix's or the strip's candidates) — the
	// observability layer's "work done" signal for the pruning. One
	// atomic add per request (not per pair), so the hot loop stays
	// untouched.
	scans atomic.Int64

	// scoreMask has bit k set iff the block scale's maximum for kind k
	// is positive — Quality skips kinds that cannot discriminate.
	// nw words.
	scoreMask []uint64

	requests []*bidding.Request // canonical (Submitted, ID) order
	offers   []*bidding.Offer   // block (input) order

	// Dense request rows: masks nw-strided, quantities nk-strided.
	reqMask []uint64
	reqRaw  []float64 // ρ_{r,k}
	reqNorm []float64 // clamped ρ'_{r,k}
	reqThr  []float64 // resource.CoverThreshold(ρ_{r,k}, f_r)
	reqW    []float64 // σ_{r,k}

	// Dense offer rows, plus scalar columns.
	offMask  []uint64
	offRaw   []float64 // ρ_{o,k}
	offNorm  []float64 // ρ'_{o,k}
	offStart []int64
	offEnd   []int64
	offX     []float64
	offY     []float64

	// Time bucket: byStart lists offer indexes sorted by Start
	// ascending (ties by index); starts is the aligned Start column for
	// binary search.
	byStart []int32
	starts  []int64

	// Locality strip: byX lists offer indexes sorted by X ascending
	// (ties by index). Built only when some request has a reach.
	byX []int32

	reqPos map[*bidding.Request]int
	offPos map[*bidding.Offer]int
}

// IndexScratch is the reusable backing store for index construction: the
// dense rows, masks, and position maps of one epoch's Index. A long-lived
// clearing loop (the incremental order book) owns one scratch, calls
// Reset at each round boundary, and passes it to NewIndexWith — steady
// state compiles the block with near-zero heap allocation.
//
// The Index returned by NewIndexWith aliases the scratch's memory: it is
// valid until the next Reset, and must not be used after. A scratch must
// never be shared by concurrent builders (each concurrent clearing loop
// owns its own).
type IndexScratch struct {
	a     arena.Arena
	reqs  arena.Slab[*bidding.Request]
	kinds arena.Slab[resource.Kind]

	seen   map[resource.Kind]bool
	kindOf map[resource.Kind]int
	reqPos map[*bidding.Request]int
	offPos map[*bidding.Offer]int
}

// NewIndexScratch returns an empty scratch.
func NewIndexScratch() *IndexScratch {
	return &IndexScratch{
		seen:   make(map[resource.Kind]bool),
		kindOf: make(map[resource.Kind]int),
		reqPos: make(map[*bidding.Request]int),
		offPos: make(map[*bidding.Offer]int),
	}
}

// Reset rewinds the scratch for the next epoch. Every Index built from
// it becomes invalid; the retained chunks and map buckets are reused.
func (s *IndexScratch) Reset() {
	s.a.Reset()
	s.reqs.Reset()
	s.kinds.Reset()
	clear(s.seen)
	clear(s.kindOf)
	clear(s.reqPos)
	clear(s.offPos)
}

// NewIndex compiles a block into an Index with fresh allocations. The
// scale must be the block-wide normalization scale (match.BlockScale).
// Requests are re-ordered canonically by (Submitted, ID) — the order
// Algorithm 2 consumes them in; Offers keep their input order.
func NewIndex(requests []*bidding.Request, offers []*bidding.Offer, scale *resource.Scale) *Index {
	return NewIndexWith(requests, offers, scale, nil)
}

// NewIndexWith is NewIndex drawing every dense row, mask, and position
// map from the given scratch (nil behaves like NewIndex). See
// IndexScratch for the aliasing contract.
func NewIndexWith(requests []*bidding.Request, offers []*bidding.Offer, scale *resource.Scale, s *IndexScratch) *Index {
	ix := &Index{scale: scale, offers: offers}
	var seen map[resource.Kind]bool
	if s != nil {
		ix.requests = s.reqs.Make(len(requests))
		copy(ix.requests, requests)
		ix.kindOf = s.kindOf
		ix.reqPos = s.reqPos
		ix.offPos = s.offPos
		seen = s.seen
	} else {
		ix.requests = append([]*bidding.Request(nil), requests...)
		ix.kindOf = make(map[resource.Kind]int)
		ix.reqPos = make(map[*bidding.Request]int, len(requests))
		ix.offPos = make(map[*bidding.Offer]int, len(offers))
		seen = make(map[resource.Kind]bool)
	}
	// IDs are unique per block, so the order is total and
	// algorithm-independent.
	slices.SortFunc(ix.requests, func(a, b *bidding.Request) int {
		return cmp.Or(cmp.Compare(a.Submitted, b.Submitted), cmp.Compare(a.ID, b.ID))
	})

	// Kind table: every kind positive anywhere in the block, sorted so
	// ascending kind index reproduces CommonKinds' sorted iteration.
	for _, r := range ix.requests {
		for k, q := range r.Resources {
			if q > 0 {
				seen[k] = true
			}
		}
	}
	for _, o := range offers {
		for k, q := range o.Resources {
			if q > 0 {
				seen[k] = true
			}
		}
	}
	if s != nil {
		ix.kinds = s.kinds.Make(len(seen))[:0]
	} else {
		ix.kinds = make([]resource.Kind, 0, len(seen))
	}
	for k := range seen {
		ix.kinds = append(ix.kinds, k)
	}
	slices.Sort(ix.kinds)
	ix.nk = len(ix.kinds)
	ix.nw = (ix.nk + 63) / 64
	if ix.nw == 0 {
		ix.nw = 1
	}
	for i, k := range ix.kinds {
		ix.kindOf[k] = i
	}

	nr, no, nk, nw := len(ix.requests), len(offers), ix.nk, ix.nw
	mk64 := func(n int) []uint64 {
		if s != nil {
			return s.a.U64.Make(n)
		}
		return make([]uint64, n)
	}
	mkF := func(n int) []float64 {
		if s != nil {
			return s.a.F64.Make(n)
		}
		return make([]float64, n)
	}
	mkI64 := func(n int) []int64 {
		if s != nil {
			return s.a.I64.Make(n)
		}
		return make([]int64, n)
	}
	mkI32 := func(n int) []int32 {
		if s != nil {
			return s.a.I32.Make(n)
		}
		return make([]int32, n)
	}

	ix.scoreMask = mk64(nw)
	for i, k := range ix.kinds {
		if scale.Max(k) > 0 {
			ix.scoreMask[i/64] |= 1 << uint(i%64)
		}
	}

	ix.reqMask = mk64(nr * nw)
	ix.reqRaw = mkF(nr * nk)
	ix.reqNorm = mkF(nr * nk)
	ix.reqThr = mkF(nr * nk)
	ix.reqW = mkF(nr * nk)
	for i, r := range ix.requests {
		ix.reqPos[r] = i
		row := i * nk
		mrow := i * nw
		flex := r.Flex()
		for k, q := range r.Resources {
			if q <= 0 {
				continue
			}
			ki := ix.kindOf[k]
			ix.reqMask[mrow+ki/64] |= 1 << uint(ki%64)
			ix.reqRaw[row+ki] = q
			ix.reqThr[row+ki] = resource.CoverThreshold(q, flex)
			ix.reqW[row+ki] = r.Weight(k)
			if om := scale.Max(k); om > 0 {
				nrm := q / om
				if nrm > 1 {
					nrm = 1
				}
				ix.reqNorm[row+ki] = nrm
			}
		}
	}

	ix.offMask = mk64(no * nw)
	ix.offRaw = mkF(no * nk)
	ix.offNorm = mkF(no * nk)
	ix.offStart = mkI64(no)
	ix.offEnd = mkI64(no)
	ix.offX = mkF(no)
	ix.offY = mkF(no)
	for i, o := range offers {
		ix.offPos[o] = i
		row := i * nk
		mrow := i * nw
		for k, q := range o.Resources {
			if q <= 0 {
				continue
			}
			ki := ix.kindOf[k]
			ix.offMask[mrow+ki/64] |= 1 << uint(ki%64)
			ix.offRaw[row+ki] = q
			if om := scale.Max(k); om > 0 {
				ix.offNorm[row+ki] = q / om
			}
		}
		ix.offStart[i] = o.Start
		ix.offEnd[i] = o.End
		ix.offX[i] = o.Location.X
		ix.offY[i] = o.Location.Y
	}

	ix.byStart = sortedOffers(mkI32(no), ix.offStart)
	ix.starts = mkI64(no)
	for i, oi := range ix.byStart {
		ix.starts[i] = ix.offStart[oi]
	}
	if slices.ContainsFunc(ix.requests, hasReach) {
		ix.byX = sortedOffers(mkI32(no), ix.offX)
	}
	return ix
}

// sortedOffers fills order with the offer indexes sorted by key
// ascending, ties by index, and returns it.
func sortedOffers[T int64 | float64](order []int32, key []T) []int32 {
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(key[a], key[b]); c != 0 {
			return c
		}
		return int(a) - int(b)
	})
	return order
}

// hasReach reports whether r has a finite positive MaxDistance.
func hasReach(r *bidding.Request) bool {
	return r.MaxDistance > 0 && !math.IsInf(r.MaxDistance, 1)
}

// Requests returns the block's valid requests in canonical
// (Submitted, ID) order — the order BestOffers indexes into.
func (ix *Index) Requests() []*bidding.Request { return ix.requests }

// Offers returns the block's valid offers in input order.
func (ix *Index) Offers() []*bidding.Offer { return ix.offers }

// Scale returns the block-wide normalization scale the index was built
// against.
func (ix *Index) Scale() *resource.Scale { return ix.scale }

// Kinds returns the block's kind table: every kind with a positive
// quantity anywhere, sorted. Kind i of the table corresponds to bit
// i%64 of word i/64 of the masks returned by RequestRow / OfferRow.
func (ix *Index) Kinds() []resource.Kind { return ix.kinds }

// MaskWords returns the number of 64-bit words per kind mask: 1 for
// blocks within 64 distinct kinds, ⌈nk/64⌉ beyond.
func (ix *Index) MaskWords() int { return ix.nw }

// Scans reports how many offer candidates the top-k best-offer loop has
// considered so far: the time prefix's or the locality strip's offers,
// before feasibility. Purely observational.
func (ix *Index) Scans() int64 { return ix.scans.Load() }

// RequestRow returns the request's dense quantity row ρ_{r,k}, aligned
// with Kinds(), and its kind bitmask words (MaskWords() long; bit i%64
// of word i/64 ⇔ positive quantity of Kinds()[i]). Both slices alias
// the index — callers must not mutate them. ok is false when the
// request is not part of the block.
func (ix *Index) RequestRow(r *bidding.Request) (row []float64, mask []uint64, ok bool) {
	i, ok := ix.reqPos[r]
	if !ok {
		return nil, nil, false
	}
	return ix.reqRaw[i*ix.nk : (i+1)*ix.nk], ix.reqMask[i*ix.nw : (i+1)*ix.nw], true
}

// OfferRow returns the offer's dense quantity row and kind bitmask
// words; see RequestRow.
func (ix *Index) OfferRow(o *bidding.Offer) (row []float64, mask []uint64, ok bool) {
	i, ok := ix.offPos[o]
	if !ok {
		return nil, nil, false
	}
	return ix.offRaw[i*ix.nk : (i+1)*ix.nk], ix.offMask[i*ix.nw : (i+1)*ix.nw], true
}

// scored is a top-k slot: an offer index with its Eq. 18 quality.
type scored struct {
	oi int32
	q  float64
}

// Scratch holds the per-worker reusable state of the scoring loop: the
// bounded top-k buffer. One Scratch must not be shared by concurrent
// goroutines; par.ForEachWorker's slot discipline guarantees that.
type Scratch struct {
	top []scored
}

// NewScratch returns an empty scratch buffer.
func NewScratch() *Scratch { return &Scratch{} }

// better reports whether a ranks strictly before b under the
// deterministic tie order of RankOffers: quality descending, then
// Submitted ascending, then ID ascending. The final offer-index tiebreak
// only fires for byte-identical duplicate orders; it makes the top-k
// result independent of scan order, which lets the time bucket and the
// locality strip reorder the offer scan freely.
func (ix *Index) better(a, b scored) bool {
	if a.q != b.q {
		return a.q > b.q
	}
	oa, ob := ix.offers[a.oi], ix.offers[b.oi]
	if oa.Submitted != ob.Submitted {
		return oa.Submitted < ob.Submitted
	}
	if oa.ID != ob.ID {
		return oa.ID < ob.ID
	}
	return a.oi < b.oi
}

// feasible1 is the single-word feasibility test (nw == 1), reproducing
// Feasible's verdicts exactly. The start test (Const. 10: t_o⁻ ≤ t_r⁻)
// always holds in the byStart prefix; it is here for the strip.
func (ix *Index) feasible1(ri, oi int, r *bidding.Request) bool {
	if ix.offStart[oi] > r.Start || ix.offEnd[oi] < r.End { // Const. 10–11
		return false
	}
	if r.MaxDistance > 0 {
		dx, dy := r.Location.X-ix.offX[oi], r.Location.Y-ix.offY[oi]
		if math.Sqrt(dx*dx+dy*dy) > r.MaxDistance {
			return false
		}
	}
	rm := ix.reqMask[ri]
	if rm&ix.offMask[oi] == 0 { // K_r ∩ K_o = ∅
		return false
	}
	// Const. 8 relaxed by flexibility: each demanded kind against the
	// precomputed CoverThreshold.
	row := oi * ix.nk
	thr := ix.reqThr[ri*ix.nk:]
	for m := rm; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		if ix.offRaw[row+k] < thr[k] {
			return false
		}
	}
	return true
}

// quality1 computes q_{(r,o)} per Eq. 18 from the dense rows (nw == 1),
// summing in ascending kind index order — the same sorted order the
// reference Quality iterates CommonKinds in, so the float result is
// bit-identical.
func (ix *Index) quality1(ri, oi int) float64 {
	var q float64
	rrow, orow := ri*ix.nk, oi*ix.nk
	for m := ix.reqMask[ri] & ix.offMask[oi] & ix.scoreMask[0]; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		no := ix.offNorm[orow+k]
		d := no - ix.reqNorm[rrow+k]
		q += ix.reqW[rrow+k] * no / (d*d + 1)
	}
	return q
}

// feasibleW is feasible1 generalized to multi-word masks (wide blocks:
// more than 64 distinct kinds).
func (ix *Index) feasibleW(ri, oi int, r *bidding.Request) bool {
	if ix.offStart[oi] > r.Start || ix.offEnd[oi] < r.End {
		return false
	}
	if r.MaxDistance > 0 {
		dx, dy := r.Location.X-ix.offX[oi], r.Location.Y-ix.offY[oi]
		if math.Sqrt(dx*dx+dy*dy) > r.MaxDistance {
			return false
		}
	}
	nw := ix.nw
	rm := ix.reqMask[ri*nw : ri*nw+nw]
	om := ix.offMask[oi*nw : oi*nw+nw]
	overlap := false
	for w := range rm {
		if rm[w]&om[w] != 0 {
			overlap = true
			break
		}
	}
	if !overlap {
		return false
	}
	row := oi * ix.nk
	thr := ix.reqThr[ri*ix.nk:]
	for w, m := range rm {
		base := w * 64
		for ; m != 0; m &= m - 1 {
			k := base + bits.TrailingZeros64(m)
			if ix.offRaw[row+k] < thr[k] {
				return false
			}
		}
	}
	return true
}

// qualityW is quality1 generalized to multi-word masks. Words iterate
// ascending and bits ascending within each word — globally ascending
// kind index, the reference's sorted accumulation order.
func (ix *Index) qualityW(ri, oi int) float64 {
	var q float64
	rrow, orow := ri*ix.nk, oi*ix.nk
	nw := ix.nw
	for w := 0; w < nw; w++ {
		base := w * 64
		for m := ix.reqMask[ri*nw+w] & ix.offMask[oi*nw+w] & ix.scoreMask[w]; m != 0; m &= m - 1 {
			k := base + bits.TrailingZeros64(m)
			no := ix.offNorm[orow+k]
			d := no - ix.reqNorm[rrow+k]
			q += ix.reqW[rrow+k] * no / (d*d + 1)
		}
	}
	return q
}

// BestOffers computes the best-offer set of request ri (an index into
// Requests()) — the same set BestOffers(r, offers, scale, cfg) returns,
// via feasibility pruning and bounded top-k selection instead of a full
// scan-sort. Only the result slice is allocated; all intermediate state
// lives in s. The candidates are the locality strip for a request with
// a reach and the time prefix for any other; the mask width specializes
// the scan once per call, not per probe.
func (ix *Index) BestOffers(ri int, cfg Config, s *Scratch) []*bidding.Offer {
	r := ix.requests[ri]
	band := cfg.QualityBand
	if band <= 0 || band > 1 {
		band = DefaultConfig().QualityBand
	}
	limit := cfg.MaxBestOffers
	if limit <= 0 {
		limit = DefaultConfig().MaxBestOffers
	}

	if cap(s.top) < limit {
		s.top = make([]scored, 0, limit)
	}
	top := s.top[:0]

	cand := ix.candidates(r)
	ix.scans.Add(int64(len(cand)))
	if ix.nw == 1 {
		for _, oi32 := range cand {
			oi := int(oi32)
			if !ix.feasible1(ri, oi, r) {
				continue
			}
			top = ix.insertTop(top, scored{oi: oi32, q: ix.quality1(ri, oi)}, limit)
		}
	} else {
		for _, oi32 := range cand {
			oi := int(oi32)
			if !ix.feasibleW(ri, oi, r) {
				continue
			}
			top = ix.insertTop(top, scored{oi: oi32, q: ix.qualityW(ri, oi)}, limit)
		}
	}
	s.top = top
	if len(top) == 0 {
		return nil
	}

	cut := top[0].q * band
	best := make([]*bidding.Offer, 0, limit)
	for _, sc := range top {
		if sc.q < cut && len(best) > 0 {
			break
		}
		best = append(best, ix.offers[sc.oi])
		if len(best) == limit {
			break
		}
	}
	return best
}

// candidates returns the offers BestOffers scans for r, a superset of
// those feasible for it (DESIGN §9). Without a reach: the byStart
// prefix with t_o⁻ ≤ t_r⁻ (Const. 10). With a reach R: the byX strip
// where dx = x_r − x_o, computed as the distance test computes it, has
// |dx| ≤ R·(1+2⁻³²) + 2⁻⁵⁰⁰; the last term covers dx² underflowing.
func (ix *Index) candidates(r *bidding.Request) []int32 {
	if !hasReach(r) {
		return ix.byStart[:sort.Search(len(ix.starts), func(i int) bool { return ix.starts[i] > r.Start })]
	}
	x, reach := r.Location.X, r.MaxDistance*(1+0x1p-32)+0x1p-500
	lo := sort.Search(len(ix.byX), func(i int) bool { return x-ix.offX[ix.byX[i]] <= reach })
	hi := sort.Search(len(ix.byX), func(i int) bool { return x-ix.offX[ix.byX[i]] < -reach })
	return ix.byX[lo:hi]
}

// insertTop inserts candidate c into the bounded, better-first top
// buffer.
func (ix *Index) insertTop(top []scored, c scored, limit int) []scored {
	if len(top) == limit {
		if !ix.better(c, top[limit-1]) {
			return top
		}
	} else {
		top = append(top, scored{})
	}
	i := len(top) - 1
	for i > 0 && ix.better(c, top[i-1]) {
		top[i] = top[i-1]
		i--
	}
	top[i] = c
	return top
}
