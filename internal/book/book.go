// Package book implements DeCloud's long-lived streaming order book:
// the mutation-friendly layer over match.Index and cluster.Builder that
// turns the per-block batch auction into a continuous market. Orders
// are inserted, cancelled, and expired between clears; unmatched orders
// carry across epochs (the market's one resubmission rule, §III-B); and
// each clear re-derives only the state that the mutations since the
// previous clear could have touched.
//
// # What is incremental, and why it is safe
//
// The dominant cost of a from-scratch block execution is the
// per-request best-offer scan (each request walks the offer classes,
// or scans its locality strip when it has a reach) plus the
// per-cluster economics pre-pass. Both are cached here:
//
//   - Each live request caches its best-offer set from the last clear
//     and is rescanned only when dirty. The dirty rules are exact:
//     a request is dirtied when it is inserted, when an offer feasible
//     for it (match.DigestFeasible — scale-independent) is inserted,
//     when an offer of its cached best set is removed, or when the
//     block normalization scale changes (scale changes invalidate every
//     quality score, so everything is dirtied). Removing an offer
//     outside a request's best set cannot change that set, and
//     removing a request never changes another request's best set.
//
//   - A clean request whose cached set is empty is parked: it can join
//     no cluster, so a clear gives it no index row. Its digest still
//     counts toward the block's kind table and scale, which stay those
//     of the whole live set.
//
//   - Per-cluster pre-pass economics are cached in an
//     auction.PrepassCache keyed by member IDs and flushed on scale
//     changes. A hit is taken only when the cached cluster's request
//     and offer pointers equal the new cluster's, so an order ID
//     re-used for another order misses.
//
// Cluster formation and mini-auction execution are NOT cached: cluster
// identity is order-dependent global state (intersection clusters
// depend on creation order), and the mini-auction lotteries are keyed
// by the block evidence, which changes every round. Each clear runs
// the persistent cluster.Builder once over every unparked request's
// cached or rescanned best set, in the index's canonical request
// order, exactly as cluster.BuildIndex does (its Update skips an empty
// set); that is what makes the outcome byte-identical to the
// from-scratch oracle — the booktest differential harness replays
// randomized multi-epoch mutation traces against auction.Run and
// asserts byte equality at every clear. The builder's own posting walk
// keeps that pass local: a request's Update visits only the clusters
// that share an offer with its best set.
//
// # Concurrency
//
// All methods are safe for concurrent use; the book is a single
// mutex-guarded replica. Chain-driven replicas (miner.Miner.Book) are
// additionally serialized by the miner's sync loop so blocks apply in
// height order.
package book

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sync"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/cluster"
	"decloud/internal/match"
	"decloud/internal/par"
	"decloud/internal/resource"
)

// DefaultMaxCarry is the number of additional clears an unmatched order
// participates in after its first: three resubmissions of a refused bid.
const DefaultMaxCarry = 3

// Stats counts every order the book has ever admitted, partitioned by
// fate. Per side, the conservation invariant holds at every instant:
//
//	Inserted == Matched + Cancelled + Expired + CarriedOut + live
//
// (Rejected orders were never admitted and are tracked separately.)
type Stats struct {
	InsertedRequests, InsertedOffers     int
	RejectedRequests, RejectedOffers     int
	MatchedRequests, MatchedOffers       int
	CancelledRequests, CancelledOffers   int
	ExpiredRequests, ExpiredOffers       int // time-window expiry
	CarriedOutRequests, CarriedOutOffers int // carry budget exhausted
	LiveRequests, LiveOffers             int

	// Clears counts clearing rounds. Rescored counts best-offer rescans
	// across them, one per dirty request; Indexed counts the unparked
	// requests they indexed; FullRescores counts clears that rescanned
	// every live request.
	Clears, Rescored, Indexed, FullRescores int

	// ComponentsReused and ComponentsRebuilt are no longer counted and
	// always read 0: every clear runs the cluster builder over the whole
	// live set. They stay only because the benchmark's book_churn
	// workload still reads them.
	ComponentsReused, ComponentsRebuilt int
}

type reqEntry struct {
	r     *bidding.Request
	pos   int  // slot in Book.reqs (kept exact by compactLocked)
	left  int  // clears remaining before carry-out
	dirty bool // best-offer set must be rescanned
	best  []*bidding.Offer
}

type offEntry struct {
	o    *bidding.Offer
	pos  int
	left int
	// watch lists the requests whose best-offer set held this offer at
	// the last clear; removing the offer dirties them.
	watch []*reqEntry
}

// Book is the streaming order book. Create with New; the zero value is
// not usable.
type Book struct {
	mu  sync.Mutex
	cfg auction.Config

	// MaxCarry is the carry budget of newly inserted orders; set it
	// before the first insert (New initializes it to DefaultMaxCarry).
	MaxCarry int

	reqs []*reqEntry // insertion order, nil holes compacted on clear
	offs []*offEntry
	// Beside each row, dense and compacted with it: the orders and
	// their digests, made at insert over ixScratch's kinds. Compacted,
	// they are a clear's input as they stand, and the fresh-offer test
	// scans reqD without touching an entry.
	reqR       []*bidding.Request
	offR       []*bidding.Offer
	reqD, offD []match.Digest
	reqByID    map[bidding.OrderID]*reqEntry
	offByID    map[bidding.OrderID]*offEntry

	// prevMax is the per-kind maxima of the last clear's normalization
	// scale; a mismatch invalidates every cached quality score.
	prevMax resource.Vector
	cleared bool

	cache   *auction.PrepassCache
	scratch []*match.Scratch

	// ixScratch and builder are the epoch-scoped arenas of the clearing
	// hot path: the block index's dense rows/masks and the cluster
	// builder's maps and mask slab are reused across clears instead of
	// reallocated. Both are reset at the START of the next clear, so
	// everything built from them stays valid through commit and outcome
	// marshalling. ixScratch also interns the kinds of reqD and offD.
	// Guarded by mu like the rest of the book.
	ixScratch *match.IndexScratch
	builder   *cluster.Builder

	// A clear's unparked requests — entries, orders, digests — and the
	// canonical positions of those it rescans; reused across clears.
	idxE   []*reqEntry
	idxR   []*bidding.Request
	idxD   []match.Digest
	rescan []int

	// memo carries the outcome of the latest Preview to a matching
	// Apply so the block's clear runs once, not twice. Any mutation in
	// between invalidates it (gen).
	gen  uint64
	memo *previewMemo

	blocks int // chain blocks applied (Apply calls); see Blocks
	stats  Stats

	// removals, when tracking is on (SetTrackRemovals), accumulates the
	// orders that left the book involuntarily — carry budget exhausted
	// or time-window expiry — since the last TakeRemovals call. The
	// metro federation reads it to decide which requests spill to a
	// neighbor exchange; everything else leaves it off, so the hot path
	// pays one boolean test.
	trackRemovals bool
	removals      Removals
}

// Removals lists the orders that left the book involuntarily since the
// last TakeRemovals: carried-out orders exhausted their carry budget at
// a commit; expired orders fell behind the market clock (ExpireBefore).
// Matched and cancelled orders are not removals — their fates are
// already visible to the caller. Slices follow the book's deterministic
// commit/expiry iteration order.
type Removals struct {
	CarriedRequests []*bidding.Request
	CarriedOffers   []*bidding.Offer
	ExpiredRequests []bidding.OrderID
	ExpiredOffers   []bidding.OrderID
}

// SetTrackRemovals switches involuntary-removal tracking on or off.
// Turning it off drops anything accumulated.
func (b *Book) SetTrackRemovals(on bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trackRemovals = on
	if !on {
		b.removals = Removals{}
	}
}

// TakeRemovals returns the involuntary removals accumulated since the
// last call and resets the log.
func (b *Book) TakeRemovals() Removals {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.removals
	b.removals = Removals{}
	return out
}

type previewMemo struct {
	gen uint64
	key string
	out *auction.Outcome
}

// New creates an empty book executing cfg at every clear.
func New(cfg auction.Config) *Book {
	return &Book{
		cfg:       cfg,
		MaxCarry:  DefaultMaxCarry,
		reqByID:   make(map[bidding.OrderID]*reqEntry),
		offByID:   make(map[bidding.OrderID]*offEntry),
		cache:     &auction.PrepassCache{},
		ixScratch: match.NewIndexScratch(),
		builder:   cluster.NewBuilder(),
	}
}

// InsertRequest admits a request. Invalid orders and IDs already live
// in the book are rejected (counted, not fatal — a miner must process
// whatever a block contains). Returns whether the order was admitted.
func (b *Book) InsertRequest(r *bidding.Request) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.insertRequestLocked(r, true)
}

// InsertOffer admits an offer; same contract as InsertRequest.
func (b *Book) InsertOffer(o *bidding.Offer) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.insertOfferLocked(o, true)
}

func (b *Book) insertRequestLocked(r *bidding.Request, record bool) bool {
	b.gen++
	if r.Validate() != nil || b.reqByID[r.ID] != nil {
		if record {
			b.stats.RejectedRequests++
		}
		return false
	}
	e := &reqEntry{r: r, pos: len(b.reqs), left: b.MaxCarry + 1, dirty: true}
	b.reqs, b.reqR, b.reqD = append(b.reqs, e), append(b.reqR, r), append(b.reqD, b.ixScratch.DigestRequest(r))
	b.reqByID[r.ID] = e
	if record {
		b.stats.InsertedRequests++
	}
	return true
}

func (b *Book) insertOfferLocked(o *bidding.Offer, record bool) bool {
	b.gen++
	if o.Validate() != nil || b.offByID[o.ID] != nil {
		if record {
			b.stats.RejectedOffers++
		}
		return false
	}
	e := &offEntry{o: o, pos: len(b.offs), left: b.MaxCarry + 1}
	b.offs, b.offR, b.offD = append(b.offs, e), append(b.offR, o), append(b.offD, b.ixScratch.DigestOffer(o))
	b.offByID[o.ID] = e
	// A fresh offer can enter the best set of any request it is
	// feasible for; feasibility is scale-independent, so this is exact.
	for i := range b.reqD {
		if match.DigestFeasible(&b.reqD[i], &b.offD[e.pos]) && b.reqs[i] != nil {
			b.reqs[i].dirty = true
		}
	}
	if record {
		b.stats.InsertedOffers++
	}
	return true
}

// CancelRequest removes a live request. Reports whether it was live.
func (b *Book) CancelRequest(id bidding.OrderID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.reqByID[id]
	if e == nil {
		return false
	}
	b.gen++
	b.removeRequestLocked(e)
	b.stats.CancelledRequests++
	return true
}

// CancelOffer removes a live offer. Reports whether it was live.
func (b *Book) CancelOffer(id bidding.OrderID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.offByID[id]
	if e == nil {
		return false
	}
	b.gen++
	b.removeOfferLocked(e)
	b.stats.CancelledOffers++
	return true
}

// ArrivalWatermark derives a market clock from a batch of arriving
// orders: the earliest window start among them. Orders whose windows end
// before that point predate everything the market will see from now on
// (AdvanceClock). The watermark is a pure function of the block's bid
// time fields, so every consensus replica expires identically. ok is
// false for an empty batch (no clock advance).
func ArrivalWatermark(reqs []*bidding.Request, offs []*bidding.Offer) (now int64, ok bool) {
	for _, r := range reqs {
		if !ok || r.Start < now {
			now, ok = r.Start, true
		}
	}
	for _, o := range offs {
		if !ok || o.Start < now {
			now, ok = o.Start, true
		}
	}
	return now, ok
}

// AdvanceClock is what every round loop does after it applies a batch:
// advance the market clock to the batch's arrival watermark and expire
// the survivors whose windows closed before it — they can never be
// scheduled again (Const. 10–11) and would otherwise haunt the live set
// until their carry budget ran out. It runs AFTER the Apply, never
// between a Preview and its Apply. Returns the number of orders removed.
func (b *Book) AdvanceClock(reqs []*bidding.Request, offs []*bidding.Offer) int {
	now, ok := ArrivalWatermark(reqs, offs)
	if !ok {
		return 0
	}
	return b.ExpireBefore(now)
}

// ExpireBefore removes every order whose time window ends before now —
// it can no longer be scheduled (Const. 10–11). Returns the number of
// orders removed.
func (b *Book) ExpireBefore(now int64) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gen++
	n := 0
	for _, e := range b.reqs {
		if e != nil && e.r.End < now {
			b.removeRequestLocked(e)
			b.stats.ExpiredRequests++
			if b.trackRemovals {
				b.removals.ExpiredRequests = append(b.removals.ExpiredRequests, e.r.ID)
			}
			n++
		}
	}
	for _, e := range b.offs {
		if e != nil && e.o.End < now {
			b.removeOfferLocked(e)
			b.stats.ExpiredOffers++
			if b.trackRemovals {
				b.removals.ExpiredOffers = append(b.removals.ExpiredOffers, e.o.ID)
			}
			n++
		}
	}
	return n
}

// removeRequestLocked unlinks a request entry. Removing a request never
// changes another request's best-offer set, so nothing is dirtied.
func (b *Book) removeRequestLocked(e *reqEntry) {
	delete(b.reqByID, e.r.ID)
	b.reqs[e.pos] = nil
}

// removeOfferLocked unlinks an offer entry and dirties every request
// whose cached best set holds the offer. Removing an offer outside a
// request's returned best set never changes that set: the top-k scan's
// non-returned candidates all score below the band cut, so the set is
// insensitive to them. A request removed since the last clear is
// dirtied harmlessly.
func (b *Book) removeOfferLocked(e *offEntry) {
	delete(b.offByID, e.o.ID)
	b.offs[e.pos] = nil
	for _, re := range e.watch {
		re.dirty = true
	}
}

// compactLocked drops removal holes, preserving insertion order; the
// orders and digests beside the rows move with their entries.
func (b *Book) compactLocked() {
	n := 0
	for i, e := range b.reqs {
		if e != nil {
			e.pos, b.reqs[n], b.reqR[n], b.reqD[n] = n, e, b.reqR[i], b.reqD[i]
			n++
		}
	}
	b.reqs, b.reqR, b.reqD = b.reqs[:n], b.reqR[:n], b.reqD[:n]
	n = 0
	for i, e := range b.offs {
		if e != nil {
			e.pos, b.offs[n], b.offR[n], b.offD[n] = n, e, b.offR[i], b.offD[i]
			n++
		}
	}
	b.offs, b.offR, b.offD = b.offs[:n], b.offR[:n], b.offD[:n]
}

// LiveRequests returns the live requests in insertion order.
func (b *Book) LiveRequests() []*bidding.Request {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.compactLocked()
	return slices.Clone(b.reqR)
}

// LiveOffers returns the live offers in insertion order.
func (b *Book) LiveOffers() []*bidding.Offer {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.compactLocked()
	return slices.Clone(b.offR)
}

// Stats returns a snapshot of the book's conservation counters.
func (b *Book) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stats
	st.LiveRequests, st.LiveOffers = len(b.reqByID), len(b.offByID)
	return st
}

// Blocks returns how many chain blocks have been applied (Apply calls);
// chain-driven replicas use it as the next height to apply.
func (b *Book) Blocks() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.blocks
}

// Clear runs one clearing round over the live book under the given
// evidence and commits it: matched orders leave the book, every
// unmatched survivor spends one unit of carry budget and leaves when
// exhausted. The returned outcome is byte-identical to
// auction.Run(LiveRequests(), LiveOffers(), cfg) with cfg.Evidence set
// to evidence.
func (b *Book) Clear(evidence []byte) *auction.Outcome {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gen++
	out := b.clearLocked(evidence)
	b.commitLocked(out)
	return out
}

// clearLocked executes the incremental clear: rescore dirty requests,
// build clusters from cached + fresh best sets in canonical order, and
// run the post-clustering mechanism. It refreshes every cache and
// resets all dirt; it does not commit (carry/removal) effects. Every
// order is read through the digest made at its insert, and index
// positions lead back to entries: offers keep their order, requests
// follow the index's canonical permutation of the unparked ones.
func (b *Book) clearLocked(evidence []byte) *auction.Outcome {
	b.compactLocked()
	b.ixScratch.Reset()
	table := b.ixScratch.Table(b.reqD, b.offD) // parked requests count too
	scale := table.Scale()
	allDirty := !b.cleared || !scale.MaxVector().Equal(b.prevMax)
	if allDirty {
		b.cache.Flush()
	}
	b.idxE, b.idxR, b.idxD = b.idxE[:0], b.idxR[:0], b.idxD[:0]
	for i, e := range b.reqs {
		if e.dirty = e.dirty || allDirty; e.dirty || len(e.best) > 0 {
			b.idxE, b.idxR, b.idxD = append(b.idxE, e), append(b.idxR, b.reqR[i]), append(b.idxD, b.reqD[i])
		}
	}
	ix := match.NewIndexWith(b.idxR, b.offR, b.idxD, b.offD, table, b.ixScratch)
	order := ix.RequestOrder()
	b.rescan = b.rescan[:0]
	for i, p := range order {
		if b.idxE[p].dirty {
			b.rescan = append(b.rescan, i)
		}
	}

	workers := b.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if len(b.scratch) < workers {
		b.scratch = make([]*match.Scratch, workers)
		for i := range b.scratch {
			b.scratch[i] = match.NewScratch()
		}
	}
	cfg := b.cfg
	cfg.Evidence = evidence
	par.ForEachWorker(workers, len(b.rescan), func(w, j int) {
		i := b.rescan[j]
		b.idxE[order[i]].best = ix.BestOffers(i, cfg.Match, b.scratch[w])
	})

	// The builder is persistent: Reset/Reserve recycle its maps and
	// mask slab, and Clusters() severs the returned clusters from that
	// memory (the prepass cache retains them across clears).
	b.builder.Reset()
	b.builder.Reserve(len(order))
	for i, r := range ix.Requests() {
		e := b.idxE[order[i]]
		b.builder.Update(r, e.best)
		e.dirty = false
	}
	clusters := b.builder.Clusters()

	out := auction.RunPrepared(b.reqR, b.offR, ix, clusters, cfg, b.cache)

	// Refresh the offers' watch lists and the scale fingerprint.
	for _, e := range b.offs {
		e.watch = e.watch[:0]
	}
	for _, e := range b.idxE {
		for _, o := range e.best {
			if i, ok := ix.OfferIndex(o); ok {
				b.offs[i].watch = append(b.offs[i].watch, e)
			}
		}
	}
	b.prevMax = scale.MaxVector()
	b.cleared = true
	b.stats.Clears++
	b.stats.Rescored += len(b.rescan)
	b.stats.Indexed += len(order)
	if len(b.rescan) == len(b.reqs) {
		b.stats.FullRescores++
	}

	// The intern table keeps every kind it was shown: once it holds
	// twice this clear's live kinds, digest the live orders again over
	// a fresh scratch (ix keeps the old one's memory alive).
	if b.ixScratch.Interned() > 2*len(ix.Kinds()) {
		b.ixScratch = match.NewIndexScratch()
		for i, r := range b.reqR {
			b.reqD[i] = b.ixScratch.DigestRequest(r)
		}
		for i, o := range b.offR {
			b.offD[i] = b.ixScratch.DigestOffer(o)
		}
	}
	return out
}

// commitLocked applies a clear's outcome to the book: matched orders
// are consumed, every unmatched survivor spends one carry unit and is
// carried out at zero.
func (b *Book) commitLocked(out *auction.Outcome) {
	for _, m := range out.Matches {
		if e := b.reqByID[m.Request.ID]; e != nil {
			b.removeRequestLocked(e)
			b.stats.MatchedRequests++
		}
		if e := b.offByID[m.Offer.ID]; e != nil { // an offer can serve several requests
			b.removeOfferLocked(e)
			b.stats.MatchedOffers++
		}
	}
	for _, e := range b.reqs {
		if e == nil {
			continue
		}
		e.left--
		if e.left <= 0 {
			b.removeRequestLocked(e)
			b.stats.CarriedOutRequests++
			if b.trackRemovals {
				b.removals.CarriedRequests = append(b.removals.CarriedRequests, e.r)
			}
		}
	}
	for _, e := range b.offs {
		if e == nil {
			continue
		}
		e.left--
		if e.left <= 0 {
			b.removeOfferLocked(e)
			b.stats.CarriedOutOffers++
			if b.trackRemovals {
				b.removals.CarriedOffers = append(b.removals.CarriedOffers, e.o)
			}
		}
	}
	b.memo = nil
}

// previewKey identifies a block's worth of admitted orders under an
// evidence value, for Preview→Apply memoization. Order contents (not
// just IDs) are hashed — each order's canonical binary encoding, every
// field the mechanism reads — so an Apply whose orders differ from the
// Preview's in any field re-clears instead of reusing the memo.
func previewKey(evidence []byte, reqs []*bidding.Request, offs []*bidding.Offer) string {
	h := fnv.New64a()
	h.Write(evidence)
	for _, r := range reqs {
		b, _ := r.MarshalBinary()
		h.Write(b)
	}
	for _, o := range offs {
		b, _ := o.MarshalBinary()
		h.Write(b)
	}
	return fmt.Sprintf("%x/%d/%d", h.Sum64(), len(reqs), len(offs))
}

// admit partitions a block's orders: news whose ID is already live are
// dropped (both producer and verifier replicas drop them identically),
// invalid orders are recorded as rejected, the rest are admitted.
func (b *Book) admitBlock(newReqs []*bidding.Request, newOffs []*bidding.Offer, record bool) (addedR []*bidding.Request, addedO []*bidding.Offer, rejR, rejO []bidding.OrderID) {
	for _, r := range newReqs {
		if b.reqByID[r.ID] != nil {
			continue // already live: the carried copy stays authoritative
		}
		if b.insertRequestLocked(r, record) {
			addedR = append(addedR, r)
		} else {
			rejR = append(rejR, r.ID)
		}
	}
	for _, o := range newOffs {
		if b.offByID[o.ID] != nil {
			continue
		}
		if b.insertOfferLocked(o, record) {
			addedO = append(addedO, o)
		} else {
			rejO = append(rejO, o.ID)
		}
	}
	return addedR, addedO, rejR, rejO
}

// Preview computes the outcome a block with the given orders would
// commit, without mutating the book's live set: the orders are
// admitted temporarily, a clear runs, and the admissions are rolled
// back (rollback dirt makes the caches exact again). The returned
// request/offer slices are the full order set the outcome was computed
// over — carried live orders plus the block's admitted ones — which is
// what a verifier must hand to the audit layer.
//
// The outcome is memoized: an Apply with the same orders and evidence,
// with no intervening mutation, reuses it without a second clear.
func (b *Book) Preview(newReqs []*bidding.Request, newOffs []*bidding.Offer, evidence []byte) (*auction.Outcome, []*bidding.Request, []*bidding.Offer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	addedR, addedO, rejR, rejO := b.admitBlock(newReqs, newOffs, false)
	out := b.clearLocked(evidence)
	out.RejectedRequests = append(out.RejectedRequests, rejR...)
	out.RejectedOffers = append(out.RejectedOffers, rejO...)

	allReqs, allOffs := slices.Clone(b.reqR), slices.Clone(b.offR) // the live set the clear read

	// Roll back the temporary admissions. Offer removal dirties the
	// requests whose fresh best sets saw the block's offers, restoring
	// the invariant that every clean request's cached best set is its
	// best set over the live market.
	for _, r := range addedR {
		b.removeRequestLocked(b.reqByID[r.ID])
	}
	for _, o := range addedO {
		b.removeOfferLocked(b.offByID[o.ID])
	}
	b.gen++
	b.memo = &previewMemo{gen: b.gen, key: previewKey(evidence, addedR, addedO), out: out}
	return out, allReqs, allOffs
}

// Apply commits a block to the book: its orders are admitted
// permanently, the clear runs (or is reused from a matching Preview),
// and the outcome's commit effects — matched-order consumption and
// carry decay — are applied. This is the only operation that advances
// Blocks().
func (b *Book) Apply(newReqs []*bidding.Request, newOffs []*bidding.Offer, evidence []byte) *auction.Outcome {
	b.mu.Lock()
	defer b.mu.Unlock()
	memo := b.memo
	// The memo is valid only when nothing mutated the book since the
	// Preview that wrote it (every mutation bumps gen without touching
	// the memo).
	reuse := memo != nil && memo.gen == b.gen
	addedR, addedO, rejR, rejO := b.admitBlock(newReqs, newOffs, true)
	var out *auction.Outcome
	if reuse && memo.key == previewKey(evidence, addedR, addedO) {
		out = memo.out
	} else {
		out = b.clearLocked(evidence)
		out.RejectedRequests = append(out.RejectedRequests, rejR...)
		out.RejectedOffers = append(out.RejectedOffers, rejO...)
	}
	b.commitLocked(out)
	b.blocks++
	b.gen++
	return out
}
