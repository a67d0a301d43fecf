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
//     quantity anywhere in the block, or in the Table's digests, sorted)
//     assigning each kind a small integer, so each order's Digest fills
//     dense rows by array lookups, never walking a resource.Vector map;
//   - a per-order kind bitmask: bit k set iff the order has a positive
//     quantity of kind k. K_r ∩ K_o = AND of mask words, replacing the
//     two map-allocating CommonKinds calls per pair. Masks are nw =
//     ⌈nk/64⌉ words wide, chosen once per block (1 within 64 kinds, the
//     common case); one word loop serves every width, with no reference
//     fallback;
//   - normalized quantities ρ' = ρ/max_k (offers) and the clamped
//     request-side ρ', significance weights σ, and the exact
//     CoversFraction thresholds, all as dense rows;
//   - offer classes: offer indexes grouped by bit-equal dense row and
//     kind mask, each class in better order, so a request without a
//     reach tests and scores each shared offer shape once (Const. 8 and
//     Eq. 18 read only the row) and walks a class's members only while
//     one can still enter its top-k; one-member classes, sorted by
//     Start, are scanned only as far as the request's own Start;
//   - a locality strip: offer indexes sorted by X, so a request with a
//     finite positive MaxDistance R only scans the offers whose X lies
//     within R of its own — a superset of the offers the distance test
//     accepts. The structural tests (Const. 10, 11, locality, Const. 8)
//     are then scalar compares against dense columns.
//
// Exactness: every arithmetic expression reproduces the reference path
// (Feasible + Quality in match.go) operation for operation — same
// divisions, same clamping, same accumulation order (ascending kind
// index = the sorted order CommonKinds yields; masks iterate words
// ascending, bits ascending, which is the same global kind order)
// — so scores and feasibility verdicts are bit-identical, not merely
// close. The paralleltest harness enforces byte-equality of whole-block
// Outcomes between this engine and the brute-force reference.
type Index struct {
	scale *resource.Scale
	kinds []resource.Kind
	nk    int
	nw    int // mask words per order: ⌈nk/64⌉ (1 when nk == 0)

	// scans counts the top-k loop's work across the whole block, as
	// Scans reports it — the observability layer's "work done" signal
	// for the pruning. One atomic add per request (not per pair), so
	// the hot loop stays untouched.
	scans atomic.Int64

	// scoreMask has bit k set iff the block scale's maximum for kind k
	// is positive — Quality skips kinds that cannot discriminate.
	// nw words.
	scoreMask []uint64

	requests []*bidding.Request // canonical (Submitted, ID) order
	offers   []*bidding.Offer   // block (input) order
	reqOrder []int32            // input position of each canonical request

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

	// Offer classes (classTable): class c is the run
	// byClass[classAt[c]:classAt[c+1]] of two or more offers whose dense
	// row and kind mask are bit-equal, in better order; from classAt's
	// last entry on, byClass lists the one-member classes by Start.
	// runStart/runEnd hold the minimum Start and maximum End of each
	// aligned 32-position run of byClass. Built only when some request
	// has no reach.
	byClass  []int32
	classAt  []int32
	runStart []int64
	runEnd   []int64

	// Locality strip: byX lists offer indexes sorted by X ascending
	// (ties by index). Built only when some request has a reach.
	byX []int32

	reqPos map[*bidding.Request]int
	offPos map[*bidding.Offer]int
}

// IndexScratch is the reusable backing store for index construction: the
// dense rows, masks, and position maps of one epoch's Index, and the
// intern table of its digests' kinds. A long-lived clearing loop (the
// incremental order book) owns one scratch, digests each order once at
// admission, calls Reset at each round boundary and passes the digests
// to NewIndexWith, so steady state allocates almost nothing.
//
// The Index returned by NewIndexWith aliases the scratch's memory: it is
// valid until the next Reset, and must not be used after. The intern
// table survives Reset. A scratch must never be shared by concurrent
// builders (each concurrent clearing loop owns its own).
type IndexScratch struct {
	a     arena.Arena
	reqs  arena.Slab[*bidding.Request]
	kinds arena.Slab[resource.Kind]

	// The intern table: a kind's ID is its position in names. IDs are
	// node-local, so no float is ever summed in ID order.
	kindID map[resource.Kind]int32
	names  []resource.Kind

	reqPos map[*bidding.Request]int
	offPos map[*bidding.Offer]int
}

// NewIndexScratch returns an empty scratch.
func NewIndexScratch() *IndexScratch {
	return &IndexScratch{
		kindID: make(map[resource.Kind]int32),
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
	clear(s.reqPos)
	clear(s.offPos)
}

// Interned returns the number of kinds in the intern table.
func (s *IndexScratch) Interned() int { return len(s.names) }

// Digest is an order compiled once: its window, place and reach, and its
// kinds, interned by the scratch that made it and sorted by ID, each with
// its quantity and, for a request, its cover threshold and weight. A
// request lists its positive kinds, an offer every nonzero one (Feasible
// tests any offer quantity against a threshold).
type Digest struct {
	start, end int64
	at         bidding.Location
	reach      float64 // a request's MaxDistance
	ks         []digestKind
}

type digestKind struct {
	id        int32
	q, thr, w float64
}

// DigestRequest compiles r over s's intern table.
func (s *IndexScratch) DigestRequest(r *bidding.Request) Digest {
	return Digest{r.Start, r.End, r.Location, r.MaxDistance, s.digest(make([]digestKind, 0, len(r.Resources)), r.Resources, r)}
}

// DigestOffer compiles o over s's intern table.
func (s *IndexScratch) DigestOffer(o *bidding.Offer) Digest {
	return Digest{o.Start, o.End, o.Location, 0, s.digest(make([]digestKind, 0, len(o.Resources)), o.Resources, nil)}
}

// digest appends the kinds of v, request r's resources or, with r nil,
// an offer's, to dst, sorted by ID.
func (s *IndexScratch) digest(dst []digestKind, v resource.Vector, r *bidding.Request) []digestKind {
	at := len(dst)
	for k, q := range v {
		if q > 0 || r == nil && q != 0 {
			id, ok := s.kindID[k]
			if !ok {
				id = int32(len(s.names))
				s.kindID[k], s.names = id, append(s.names, k)
			}
			if dst = append(dst, digestKind{id: id, q: q}); r != nil {
				dst[len(dst)-1].thr, dst[len(dst)-1].w = resource.CoverThreshold(q, r.Flex()), r.Weight(k)
			}
		}
	}
	slices.SortFunc(dst[at:], func(a, b digestKind) int { return cmp.Compare(a.id, b.id) })
	return dst
}

// DigestFeasible returns Feasible(r, o) from digests one scratch made:
// the window test (inlined: it rejects most pairs) and the reach test as
// bidding computes them, then K_r ∩ K_o and the cover thresholds.
func DigestFeasible(rd, od *Digest) bool {
	return od.start <= rd.start && od.end >= rd.end && reachAndKindsFit(rd, od)
}

// reachAndKindsFit is the rest of DigestFeasible: the reach test, then
// a merge of the ID-sorted kinds.
func reachAndKindsFit(rd, od *Digest) bool {
	if !(rd.reach <= 0 || rd.at.Distance(od.at) <= rd.reach) {
		return false
	}
	common, j := false, 0
	for _, k := range rd.ks {
		for j < len(od.ks) && od.ks[j].id < k.id {
			j++
		}
		q := 0.0 // the offer's quantity of kind k
		if j < len(od.ks) && od.ks[j].id == k.id {
			q = od.ks[j].q
		}
		if q < k.thr {
			return false
		}
		common = common || q > 0
	}
	return common
}

// NewIndex compiles a block into an Index with fresh allocations, its
// orders digested into one slab. The scale must be the block-wide
// normalization scale (match.BlockScale). Requests are re-ordered
// canonically by (Submitted, ID) — the order Algorithm 2 consumes them
// in; Offers keep their input order.
func NewIndex(requests []*bidding.Request, offers []*bidding.Offer, scale *resource.Scale) *Index {
	s := &IndexScratch{kindID: make(map[resource.Kind]int32),
		reqPos: make(map[*bidding.Request]int, len(requests)), offPos: make(map[*bidding.Offer]int, len(offers))}
	n, nr := 0, len(requests)
	for _, r := range requests {
		n += len(r.Resources)
	}
	for _, o := range offers {
		n += len(o.Resources)
	}
	slab, ds := make([]digestKind, 0, n), make([]Digest, nr+len(offers))
	for i := range ds {
		at := len(slab)
		if i < nr {
			slab = s.digest(slab, requests[i].Resources, requests[i])
		} else {
			slab = s.digest(slab, offers[i-nr].Resources, nil)
		}
		ds[i].ks = slab[at:]
	}
	return compile(requests, offers, ds[:nr], ds[nr:], s.table(false, scale, ds), s, false)
}

// NewIndexWith is NewIndex over digests s made — rd[i] of requests[i],
// od[i] of offers[i] — drawing every row from s, laid out over t, a
// table s took this epoch over these digests and possibly others. See
// IndexScratch for the aliasing contract.
func NewIndexWith(requests []*bidding.Request, offers []*bidding.Offer, rd, od []Digest, t Table, s *IndexScratch) *Index {
	return compile(requests, offers, rd, od, t, s, true)
}

// A Table is a block's kind table and normalization scale, taken over
// digests one scratch made: every kind positive in some digest, sorted
// by name so ascending kind index reproduces CommonKinds' sorted
// iteration, and the digests' column maxima, which are BlockScale's to
// the bit (a maximum is exact).
type Table struct {
	kinds []resource.Kind
	col   []int32 // an intern ID's kind index
	scale *resource.Scale
}

// Scale returns the table's normalization scale.
func (t Table) Scale() *resource.Scale { return t.scale }

// Table takes the table over every digest of ds. An index built over it
// scores and lays out its rows as if each order of ds were in the
// block, also one it leaves out. It draws from s: valid until Reset.
func (s *IndexScratch) Table(ds ...[]Digest) Table { return s.table(true, nil, ds...) }

// rows returns n zeroed elements, from sl when pooled, else the heap.
func rows[T any](pooled bool, sl *arena.Slab[T], n int) []T {
	if pooled {
		return sl.Make(n)
	}
	return make([]T, n)
}

// table takes the table over ds against scale or, when it is nil, the
// digests' column maxima.
func (s *IndexScratch) table(pooled bool, scale *resource.Scale, ds ...[]Digest) Table {
	colMax := rows(pooled, &s.a.F64, len(s.names))
	for _, d := range ds {
		for i := range d {
			for _, k := range d[i].ks {
				if k.q > colMax[k.id] {
					colMax[k.id] = k.q
				}
			}
		}
	}
	ids, t := rows(pooled, &s.a.I32, len(s.names))[:0], Table{col: rows(pooled, &s.a.I32, len(s.names)), scale: scale}
	for id, m := range colMax {
		if m > 0 {
			ids = append(ids, int32(id))
		}
	}
	slices.SortFunc(ids, func(a, b int32) int { return cmp.Compare(s.names[a], s.names[b]) })
	t.kinds = rows(pooled, &s.kinds, len(ids))
	for i, id := range ids {
		t.kinds[i], t.col[id] = s.names[id], int32(i)
	}
	if scale == nil {
		m := make(resource.Vector, len(ids))
		for _, id := range ids {
			m[s.names[id]] = colMax[id]
		}
		t.scale = resource.NewScale(m)
	}
	return t
}

// compile builds the index over digests that s made, laid out over t.
func compile(requests []*bidding.Request, offers []*bidding.Offer, rd, od []Digest, t Table, s *IndexScratch, pooled bool) *Index {
	ix := &Index{offers: offers, reqPos: s.reqPos, offPos: s.offPos}
	nr, no, scale, col := len(requests), len(offers), t.scale, t.col
	ix.kinds, ix.scale, ix.nk, ix.nw = t.kinds, scale, len(t.kinds), max((len(t.kinds)+63)/64, 1)
	nk, nw := ix.nk, ix.nw

	ix.scoreMask = rows(pooled, &s.a.U64, nw)
	om := rows(pooled, &s.a.F64, nk) // the scale's maximum per table kind
	for i, k := range ix.kinds {
		if om[i] = scale.Max(k); om[i] > 0 {
			ix.scoreMask[i/64] |= 1 << uint(i%64)
		}
	}

	// IDs are unique per block, so the order is total and
	// algorithm-independent. IDs are compared only on a Submitted tie.
	ix.reqOrder = rows(pooled, &s.a.I32, nr)
	for i := range ix.reqOrder {
		ix.reqOrder[i] = int32(i)
	}
	slices.SortFunc(ix.reqOrder, func(a, b int32) int {
		if c := cmp.Compare(requests[a].Submitted, requests[b].Submitted); c != 0 {
			return c
		}
		return cmp.Compare(requests[a].ID, requests[b].ID)
	})
	ix.requests = rows(pooled, &s.reqs, nr)
	ix.reqMask = rows(pooled, &s.a.U64, nr*nw)
	ix.reqRaw, ix.reqNorm = rows(pooled, &s.a.F64, nr*nk), rows(pooled, &s.a.F64, nr*nk)
	ix.reqThr, ix.reqW = rows(pooled, &s.a.F64, nr*nk), rows(pooled, &s.a.F64, nr*nk)
	for i, p := range ix.reqOrder {
		r := requests[p]
		ix.requests[i] = r
		ix.reqPos[r] = i
		row, mrow := i*nk, i*nw
		for _, k := range rd[p].ks {
			ki := int(col[k.id])
			ix.reqMask[mrow+ki/64] |= 1 << uint(ki%64)
			ix.reqRaw[row+ki] = k.q
			ix.reqThr[row+ki] = k.thr
			ix.reqW[row+ki] = k.w
			if om[ki] > 0 {
				ix.reqNorm[row+ki] = min(k.q/om[ki], 1)
			}
		}
	}

	ix.offMask = rows(pooled, &s.a.U64, no*nw)
	ix.offRaw, ix.offNorm = rows(pooled, &s.a.F64, no*nk), rows(pooled, &s.a.F64, no*nk)
	ix.offStart, ix.offEnd = rows(pooled, &s.a.I64, no), rows(pooled, &s.a.I64, no)
	ix.offX, ix.offY = rows(pooled, &s.a.F64, no), rows(pooled, &s.a.F64, no)
	for i, o := range offers {
		ix.offPos[o] = i
		row, mrow := i*nk, i*nw
		for _, k := range od[i].ks {
			if !(k.q > 0) {
				continue
			}
			ki := int(col[k.id])
			ix.offMask[mrow+ki/64] |= 1 << uint(ki%64)
			ix.offRaw[row+ki] = k.q
			if om[ki] > 0 {
				ix.offNorm[row+ki] = k.q / om[ki]
			}
		}
		ix.offStart[i], ix.offEnd[i], ix.offX[i], ix.offY[i] = o.Start, o.End, o.Location.X, o.Location.Y
	}

	if slices.ContainsFunc(ix.requests, hasReach) {
		ix.byX = sortedOffers(rows(pooled, &s.a.I32, no), ix.offX)
	}
	if slices.ContainsFunc(ix.requests, func(r *bidding.Request) bool { return !hasReach(r) }) {
		ix.byClass, ix.classAt = ix.classTable(rows(pooled, &s.a.I32, no), rows(pooled, &s.a.I32, no), rows(pooled, &s.a.I32, no+1)[:0])
		ix.runStart, ix.runEnd = rows(pooled, &s.a.I64, (no+31)/32), rows(pooled, &s.a.I64, (no+31)/32)
		for p, oi := range ix.byClass[:ix.classAt[len(ix.classAt)-1]] {
			if j := p / 32; p%32 == 0 {
				ix.runStart[j], ix.runEnd[j] = ix.offStart[oi], ix.offEnd[oi]
			} else {
				ix.runStart[j], ix.runEnd[j] = min(ix.runStart[j], ix.offStart[oi]), max(ix.runEnd[j], ix.offEnd[oi])
			}
		}
	}
	return ix
}

// sortedOffers fills order with the offer indexes sorted by key
// ascending, ties by index, and returns it.
func sortedOffers(order []int32, key []float64) []int32 {
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

// classTable fills order with the offer indexes grouped into classes
// and returns it with at, each shared class's first position. The
// classes of two or more members come first, each in better order;
// then, from at's last entry, the one-member classes sorted by Start
// (ties by index), which a request scans only up to its own Start.
func (ix *Index) classTable(order, single, at []int32) ([]int32, []int32) {
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := ix.compareShape(int(a), int(b)); c != 0 {
			return c
		}
		oa, ob := ix.offers[a], ix.offers[b] // better's tie order
		return cmp.Or(cmp.Compare(oa.Submitted, ob.Submitted), cmp.Compare(oa.ID, ob.ID), cmp.Compare(a, b))
	})
	single, w := single[:0], 0
	for lo, hi := 0, 1; lo < len(order); lo, hi = hi, hi+1 {
		for hi < len(order) && ix.compareShape(int(order[lo]), int(order[hi])) == 0 {
			hi++
		}
		if hi-lo == 1 {
			single = append(single, order[lo])
		} else {
			at = append(at, int32(w))
			w += copy(order[w:], order[lo:hi])
		}
	}
	copy(order[w:], single)
	slices.SortFunc(order[w:], func(a, b int32) int { return cmp.Or(cmp.Compare(ix.offStart[a], ix.offStart[b]), cmp.Compare(a, b)) })
	return order, append(at, int32(w))
}

// compareShape orders offers a and b by kind mask, then dense row. It
// returns 0 exactly when both are bit-equal: a row holds only positive
// quantities and zeros, where float equality is bit equality.
func (ix *Index) compareShape(a, b int) int {
	nk, nw := ix.nk, ix.nw
	return cmp.Or(slices.Compare(ix.offMask[a*nw:(a+1)*nw], ix.offMask[b*nw:(b+1)*nw]),
		slices.Compare(ix.offRaw[a*nk:(a+1)*nk], ix.offRaw[b*nk:(b+1)*nk]))
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

// RequestOrder returns the canonical permutation: Requests()[i] is the
// request the index was given at position RequestOrder()[i].
func (ix *Index) RequestOrder() []int32 { return ix.reqOrder }

// OfferIndex returns o's position in Offers(); ok is false when the
// offer is not part of the block.
func (ix *Index) OfferIndex(o *bidding.Offer) (i int, ok bool) {
	i, ok = ix.offPos[o]
	return i, ok
}

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

// Scans reports the top-k best-offer loop's work so far: one per offer
// scanned (a locality strip's, or a one-member class), per other offer
// class scored, per 32-offer run tested and per class member visited.
// Purely observational.
func (ix *Index) Scans() int64 { return ix.scans.Load() }

// RequestIndex returns r's position in Requests(); ok is false when
// the request is not part of the block.
func (ix *Index) RequestIndex(r *bidding.Request) (i int, ok bool) {
	i, ok = ix.reqPos[r]
	return i, ok
}

// RequestRow returns the dense quantity row ρ_{r,k} of Requests()[i],
// aligned with Kinds(), and its kind bitmask words (MaskWords() long;
// bit i%64 of word i/64 ⇔ positive quantity of Kinds()[i]). Both
// slices alias the index — callers must not mutate them.
func (ix *Index) RequestRow(i int) (row []float64, mask []uint64) {
	return ix.reqRaw[i*ix.nk : (i+1)*ix.nk : (i+1)*ix.nk], ix.reqMask[i*ix.nw : (i+1)*ix.nw : (i+1)*ix.nw]
}

// OfferRow returns the dense quantity row and kind bitmask words of
// Offers()[i]; see RequestRow.
func (ix *Index) OfferRow(i int) (row []float64, mask []uint64) {
	return ix.offRaw[i*ix.nk : (i+1)*ix.nk : (i+1)*ix.nk], ix.offMask[i*ix.nw : (i+1)*ix.nw : (i+1)*ix.nw]
}

// scored is a top-k slot: an offer index with its Eq. 18 quality.
type scored struct {
	oi int32
	q  float64
}

// Scratch holds the per-worker reusable state of the scoring loop: the
// bounded top-k buffer and the per-class qualities of the class walk.
// One Scratch must not be shared by concurrent goroutines;
// par.ForEachWorker's slot discipline guarantees that.
type Scratch struct {
	top []scored
	cls []scored // oi is a class index
}

// NewScratch returns an empty scratch buffer.
func NewScratch() *Scratch { return &Scratch{} }

// better reports whether a ranks strictly before b under the
// deterministic tie order of RankOffers: quality descending, then
// Submitted ascending, then ID ascending. The final offer-index tiebreak
// only fires for byte-identical duplicate orders; it makes the top-k
// result independent of scan order, which lets the class walk and the
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

// placeFit is the per-offer half of Feasible's verdict: the offer's
// window covers the request's (Const. 10–11) and, when the request has
// a MaxDistance, the exact distance test.
func (ix *Index) placeFit(oi int, r *bidding.Request) bool {
	if ix.offStart[oi] > r.Start || ix.offEnd[oi] < r.End {
		return false
	}
	if r.MaxDistance > 0 {
		dx, dy := r.Location.X-ix.offX[oi], r.Location.Y-ix.offY[oi]
		if math.Sqrt(float64(dx*dx)+float64(dy*dy)) > r.MaxDistance {
			return false
		}
	}
	return true
}

// score is the per-shape half of Feasible's verdict, with q_{(r,o)}:
// it reports whether K_r ∩ K_o ≠ ∅ and the offer covers every demanded
// kind (Const. 8 relaxed by flexibility, against the precomputed
// CoverThreshold), and if so the Eq. 18 quality. Both read only the
// offer's dense row and mask, so a class shares the verdict and the
// float. Words iterate ascending and bits ascending within each word —
// globally ascending kind index, the sorted order the reference
// Quality iterates CommonKinds in — so the float is bit-identical.
func (ix *Index) score(ri, oi int) (float64, bool) {
	nk, nw := ix.nk, ix.nw
	rm, om := ix.reqMask[ri*nw:(ri+1)*nw], ix.offMask[oi*nw:(oi+1)*nw]
	overlap := false
	for w := range rm {
		overlap = overlap || rm[w]&om[w] != 0
	}
	if !overlap {
		return 0, false
	}
	rrow, orow := ri*nk, oi*nk
	for w, m := range rm {
		for ; m != 0; m &= m - 1 {
			if k := w*64 + bits.TrailingZeros64(m); ix.offRaw[orow+k] < ix.reqThr[rrow+k] {
				return 0, false
			}
		}
	}
	var q float64
	for w := range rm {
		for m := rm[w] & om[w] & ix.scoreMask[w]; m != 0; m &= m - 1 {
			k := w*64 + bits.TrailingZeros64(m)
			no := ix.offNorm[orow+k]
			d := no - ix.reqNorm[rrow+k]
			q += ix.reqW[rrow+k] * no / (float64(d*d) + 1)
		}
	}
	return q, true
}

// BestOffers computes the best-offer set of request ri (an index into
// Requests()) — the same set BestOffers(r, offers, scale, cfg) returns,
// via feasibility pruning and bounded top-k selection instead of a full
// scan-sort. Only the result slice is allocated; all intermediate state
// lives in s. A request with a reach scans its locality strip; any
// other walks the offer classes.
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

	s.top = slices.Grow(s.top[:0], limit)
	var top []scored
	var scans int
	if hasReach(r) {
		top, scans = ix.stripTop(ri, r, s.top[:0], limit)
	} else {
		top, scans = ix.classTop(ri, r, s, limit)
	}
	ix.scans.Add(int64(scans))
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

// stripTop fills top with the best of the offers on r's locality strip:
// the byX run where dx = x_r − x_o, computed as the distance test
// computes it, has |dx| ≤ R·(1+2⁻³²) + 2⁻⁵⁰⁰, a superset of the offers
// within reach R (DESIGN §9); the last term covers dx² underflowing. It
// returns top and the strip's length.
func (ix *Index) stripTop(ri int, r *bidding.Request, top []scored, limit int) ([]scored, int) {
	x, reach := r.Location.X, float64(r.MaxDistance*(1+0x1p-32))+0x1p-500
	lo := sort.Search(len(ix.byX), func(i int) bool { return x-ix.offX[ix.byX[i]] <= reach })
	hi := sort.Search(len(ix.byX), func(i int) bool { return x-ix.offX[ix.byX[i]] < -reach })
	return ix.scanTop(ri, r, ix.byX[lo:hi], top, limit), hi - lo
}

// scanTop inserts into top every listed offer that is feasible for r,
// testing the offer's window and reach before its shape.
func (ix *Index) scanTop(ri int, r *bidding.Request, offers []int32, top []scored, limit int) []scored {
	for _, oi := range offers {
		if !ix.placeFit(int(oi), r) {
			continue
		}
		if q, ok := ix.score(ri, int(oi)); ok {
			top = ix.insertTop(top, scored{oi: oi, q: q}, limit)
		}
	}
	return top
}

// classTop fills s.top with the best offers for r, a request without a
// reach, by walking the offer classes (DESIGN §9). It scans the
// one-member classes that start by r.Start as an offer list. Every other
// class's shape is tested and scored once, on its first member; the
// best class is walked first; a class whose quality cannot enter a full
// buffer is skipped; and a class's members, already in better order,
// are walked until one cannot enter, skipping every 32-position run
// whose earliest Start or latest End rules it out whole. It returns the
// buffer and the work done (see Scans).
func (ix *Index) classTop(ri int, r *bidding.Request, s *Scratch, limit int) ([]scored, int) {
	nc := len(ix.classAt) - 1
	single := ix.byClass[ix.classAt[nc]:]
	single = single[:sort.Search(len(single), func(i int) bool { return ix.offStart[single[i]] > r.Start })]
	top := ix.scanTop(ri, r, single, s.top[:0], limit)
	s.cls = slices.Grow(s.cls[:0], nc)
	cls := s.cls
	for c := range nc {
		if q, ok := ix.score(ri, int(ix.byClass[ix.classAt[c]])); ok {
			if cls = append(cls, scored{oi: int32(c), q: q}); q > cls[0].q { // the best so far goes first
				cls[0], cls[len(cls)-1] = cls[len(cls)-1], cls[0]
			}
		}
	}
	scans := nc + len(single)
	for _, cl := range cls {
		if len(top) == limit && cl.q < top[limit-1].q {
			continue
		}
		lo, hi := int(ix.classAt[cl.oi]), int(ix.classAt[cl.oi+1])
		for p := lo; p < hi; {
			if p == lo || p%32 == 0 {
				j := p / 32
				scans++
				if ix.runStart[j] > r.Start || ix.runEnd[j] < r.End {
					p = (j + 1) * 32
					continue
				}
			}
			c := scored{oi: ix.byClass[p], q: cl.q}
			p++
			scans++
			if len(top) == limit && !ix.better(c, top[limit-1]) {
				break
			}
			if ix.placeFit(int(c.oi), r) {
				top = ix.insertTop(top, c, limit)
			}
		}
	}
	return top, scans
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
