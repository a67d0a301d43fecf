// Package cluster implements Algorithm 2 of the DeCloud paper: grouping
// requests with their best-offer sets into clusters. A cluster is
// identified by its offer set; its request set accumulates every request
// whose best offers contain (or intersect) that offer set. Within a
// cluster, any offer is an acceptable match for any member request.
//
// The builder represents offer sets as bitmasks over the block's offer
// universe (bits assigned in first-seen order), so Algorithm 2's subset
// and intersection tests are word-wise AND/ANDN instead of per-offer map
// probes, and an intersection cluster is only materialized when its
// popcount proves it non-trivial. The builder finds a cluster by a hash
// of its mask's nonzero words and confirms it by comparing masks, so an
// offer set names one cluster; the public Key() (sorted IDs) is
// unchanged and computed once per cluster.
//
// The tests run once per (best-offer set, existing cluster) pair, not
// once per (request, existing cluster) pair: within an epoch a cluster's
// offer mask never changes and clusters are only ever appended, so the
// outcome of comparing a best set with a cluster never changes either.
// Each best-set cluster memoizes the subsets and supersets it found and
// how far into the creation order it has looked (see Builder.Update).
// Of the clusters past that horizon, Update needs only those sharing an
// offer with the best set: a disjoint cluster is neither a subset, a
// superset nor a ≥ 2-offer intersection of it. The builder keeps, per
// offer, the clusters holding it in creation order, and walks those
// lists instead of scanning the horizon's tail when they are the
// shorter of the two — so in a geo-fragmented market, a request's
// Update costs what its own neighbourhood holds, not the whole market.
//
// Request membership uses the same trick over a request universe:
// during Update a cluster's members are a bitmask, so inheriting a
// superset's requests is a word-wise OR instead of a per-request map
// probe — the dominant cost when the same market is re-clustered every
// round by the incremental book. Clusters() materializes the Requests
// slices (canonically sorted) once at the end.
package cluster

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"

	"decloud/internal/arena"
	"decloud/internal/bidding"
	"decloud/internal/match"
)

// Cluster is a set of offers together with the requests that consider
// those offers (near-)best matches.
type Cluster struct {
	// Offers is the cluster's identity, ordered deterministically
	// (by submission time, then ID).
	Offers []*bidding.Offer
	// Requests are the member requests, deduplicated and ordered
	// deterministically. The builder fills this in Clusters(); during
	// construction membership lives in rmask.
	Requests []*bidding.Request

	mask  []uint64 // offer set over the builder's offer universe
	rmask []uint64 // member requests over the builder's request universe
	key   string   // cached offerSetKey

	// Algorithm 2 memo of this offer set as a best set: the clusters of
	// the builder's order[:horizon] that are subsets and supersets of
	// it, in creation order. Builder-epoch scratch, like mask.
	horizon    int
	subs, sups []*Cluster

	// idx is the cluster's position in the builder's creation order;
	// stamp marks it as collected by the Update of that stamp (see
	// Builder.Update's posting walk); next chains the clusters whose
	// mask hashes collide. Builder-epoch scratch, like mask.
	idx   int
	stamp uint64
	next  *Cluster
}

// newCluster builds a cluster from an offer set and its builder mask.
// The Cluster struct, its Offers copy and the key are ordinary heap
// allocations on purpose: clusters outlive the build — the auction's
// prepass cache retains them across many later clears — while mask,
// rmask and the memo are builder-epoch scratch that Clusters() severs.
func newCluster(offers []*bidding.Offer, mask []uint64) *Cluster {
	c := &Cluster{Offers: append([]*bidding.Offer(nil), offers...), mask: mask}
	sortOffers(c.Offers)
	c.key = offerSetKey(c.Offers)
	return c
}

// Key returns the canonical identity of the cluster's offer set: the
// sorted offer IDs joined with NUL. It labels the evidence-keyed
// lotteries of the mechanism, so its format is consensus-critical and
// independent of the builder's internal mask representation.
func (c *Cluster) Key() string { return c.key }

func offerSetKey(offers []*bidding.Offer) string {
	ids := make([]string, len(offers))
	for i, o := range offers {
		ids[i] = string(o.ID)
	}
	slices.Sort(ids)
	return strings.Join(ids, "\x00")
}

func sortOffers(offers []*bidding.Offer) {
	// (Submitted, ID) is a total order — IDs are unique per block.
	slices.SortFunc(offers, func(a, b *bidding.Offer) int {
		if c := cmp.Compare(a.Submitted, b.Submitted); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// maskSubset reports a ⊆ b for offer-set masks; masks of different
// lengths are zero-extended.
func maskSubset(a, b []uint64) bool {
	for i, w := range a {
		var bw uint64
		if i < len(b) {
			bw = b[i]
		}
		if w&^bw != 0 {
			return false
		}
	}
	return true
}

// Builder incrementally applies Algorithm 2's UPDATECLUSTERS procedure,
// with one memo per best-offer set (see Update).
//
// A Builder is single-use by default (NewBuilder + Updates + Clusters),
// but a long-lived clearing loop can hold one across epochs: call Reset
// at each round boundary — and optionally Reserve with the round's order
// counts — and the maps, scratch slices, and the mask slab are reused
// instead of reallocated. Builders are not safe for concurrent use;
// each concurrent clearing loop owns its own.
type Builder struct {
	clusters map[uint64]*Cluster // by find's mask hash, colliding clusters chained
	order    []*Cluster          // creation order, for determinism

	bitOf    map[*bidding.Offer]int // offer → universe bit
	universe []*bidding.Offer       // bit → offer

	reqBit      map[bidding.OrderID]int // request ID → request-universe bit
	reqUniverse []*bidding.Request      // bit → request

	// masks backs every cluster's offer mask and request-membership mask
	// for the current epoch; Reset rewinds it. Clusters() severs the
	// returned clusters from this memory (mask/rmask are nilled), so
	// retaining a Cluster past Reset — the prepass cache does — is safe.
	masks arena.Slab[uint64]
	// rw is the reserved rmask width in words (0: grow on demand).
	// Fixed-width rmasks never reallocate on setBit/orMask, so the whole
	// membership bookkeeping of an epoch lives in the slab.
	rw int

	// post lists, per offer-universe bit, the clusters whose offer set
	// holds that offer, in creation order; it is never shorter than
	// universe. Reset clears each list before truncating it, so retired
	// clusters are not pinned by the capacity kept across epochs.
	post  [][]*Cluster
	stamp uint64 // last Update stamp handed to the posting walk

	bm   []uint64         // scratch: the current request's best-offer mask
	iw   []uint64         // scratch: intersection words
	ob   []*bidding.Offer // scratch: offersOf output
	cand []*Cluster       // scratch: the posting walk's candidates
}

// NewBuilder returns an empty cluster builder.
func NewBuilder() *Builder {
	return &Builder{
		clusters: make(map[uint64]*Cluster),
		bitOf:    make(map[*bidding.Offer]int),
		reqBit:   make(map[bidding.OrderID]int),
	}
}

// Reset rewinds the builder for a new epoch, retaining map buckets,
// scratch slices, and mask-slab capacity. Clusters previously returned
// by Clusters() remain valid (they own their data); everything else the
// builder handed out becomes invalid. The memos live on the epoch's
// clusters, so they go with them.
func (b *Builder) Reset() {
	clear(b.clusters)
	clear(b.order)
	b.order = b.order[:0]
	clear(b.bitOf)
	b.universe = b.universe[:0]
	for i := range b.post {
		clear(b.post[i])
		b.post[i] = b.post[i][:0]
	}
	clear(b.reqBit)
	b.reqUniverse = b.reqUniverse[:0]
	b.masks.Reset()
	b.rw = 0
	clear(b.cand[:cap(b.cand)])
}

// Reserve sizes the request-membership masks for a round expected to
// intern at most nreq requests. Call it after Reset, before any Update;
// interning more than nreq requests stays correct (masks fall back to
// heap growth) but loses the fixed-width fast path.
func (b *Builder) Reserve(nreq int) {
	b.rw = (nreq + 63) / 64
}

// cloneMask copies a mask into the epoch slab.
func (b *Builder) cloneMask(m []uint64) []uint64 {
	c := b.masks.Make(len(m))
	copy(c, m)
	return c
}

// setRBit sets a request bit in a membership mask, materializing the
// mask on first use — at the reserved fixed width from the slab when
// Reserve was called, else growing a heap slice on demand.
func (b *Builder) setRBit(m []uint64, bit int) []uint64 {
	if m == nil && b.rw > bit/64 {
		m = b.masks.Make(b.rw)
	}
	for len(m) <= bit/64 {
		m = append(m, 0)
	}
	m[bit/64] |= 1 << uint(bit%64)
	return m
}

// internReq assigns the request a bit in the request universe (first
// occurrence of an ID wins, deduplicating exactly as per-cluster ID
// maps used to).
func (b *Builder) internReq(r *bidding.Request) int {
	if bit, ok := b.reqBit[r.ID]; ok {
		return bit
	}
	bit := len(b.reqUniverse)
	b.reqBit[r.ID] = bit
	b.reqUniverse = append(b.reqUniverse, r)
	return bit
}

// orMask unions src into dst, growing dst as needed.
func orMask(dst, src []uint64) []uint64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, w := range src {
		dst[i] |= w
	}
	return dst
}

// maskOf interns the offers into the universe and returns their mask in
// the builder's scratch buffer (valid until the next maskOf call).
func (b *Builder) maskOf(offers []*bidding.Offer) []uint64 {
	for _, o := range offers {
		if _, ok := b.bitOf[o]; !ok {
			b.bitOf[o] = len(b.universe)
			b.universe = append(b.universe, o)
			if len(b.post) < len(b.universe) {
				b.post = append(b.post, nil)
			}
		}
	}
	nw := (len(b.universe) + 63) / 64
	if cap(b.bm) < nw {
		b.bm = make([]uint64, nw)
	}
	b.bm = b.bm[:nw]
	clear(b.bm)
	for _, o := range offers {
		bit := b.bitOf[o]
		b.bm[bit/64] |= 1 << uint(bit%64)
	}
	return b.bm
}

// find returns the epoch's cluster of exactly the offer set m, or nil,
// and m's hash. The hash skips zero words, so masks built with more or
// fewer words hash alike.
func (b *Builder) find(m []uint64) (*Cluster, uint64) {
	var h uint64
	for i, w := range m {
		if w != 0 {
			h = (h ^ w ^ uint64(i)<<57) * 0x9e3779b97f4a7c15
			h ^= h >> 29
		}
	}
	for c := b.clusters[h]; c != nil; c = c.next {
		if maskSubset(c.mask, m) && maskSubset(m, c.mask) {
			return c, h
		}
	}
	return nil, h
}

// offersOf materializes the offers of a mask into the builder's scratch
// buffer, in universe-bit order (newCluster copies and re-sorts
// canonically anyway). Valid until the next offersOf call.
func (b *Builder) offersOf(m []uint64) []*bidding.Offer {
	out := b.ob[:0]
	for wi, w := range m {
		for ; w != 0; w &= w - 1 {
			out = append(out, b.universe[wi*64+bits.TrailingZeros64(w)])
		}
	}
	b.ob = out
	return out
}

// put registers a newly created cluster under its mask hash, at the end
// of the creation order and of its offers' posting lists.
func (b *Builder) put(h uint64, c *Cluster) {
	c.idx, c.next = len(b.order), b.clusters[h]
	b.clusters[h] = c
	b.order = append(b.order, c)
	for wi, w := range c.mask {
		for ; w != 0; w &= w - 1 {
			bit := wi*64 + bits.TrailingZeros64(w)
			b.post[bit] = append(b.post[bit], c)
		}
	}
}

// Update inserts request r with its best-offer set bestR, following
// Algorithm 2:
//
//  1. If no cluster has exactly the offer set bestR, create one.
//  2. Add r to every cluster whose offer set is a subset of bestR; such
//     subsets also inherit the requests of every superset of bestR
//     (their offers serve those requests too).
//  3. For every other cluster whose offer set overlaps bestR in more
//     than one offer, materialize (or extend) the intersection cluster.
//
// Only clusters created since the last Update with the same best set
// are compared with it. The earlier ones were classified then, and
// within an epoch masks are immutable and order is append-only, so the
// memo on the best-set cluster is still exact. Step 3 needs nothing
// from them either: an intersection with bestR is a subset of bestR,
// so one that already exists is in the memo and has r from step 2.
// Of the new clusters, only those sharing an offer with bestR can take
// part in any step (see fresh).
func (b *Builder) Update(r *bidding.Request, bestR []*bidding.Offer) {
	if len(bestR) == 0 {
		return
	}
	ri := b.internReq(r)
	bestMask := b.maskOf(bestR)
	best, h := b.find(bestMask)
	if best == nil {
		best = newCluster(bestR, b.cloneMask(bestMask))
		b.put(h, best)
	}

	// Fix the horizon now: intersection clusters created below must not
	// themselves be revisited within this update. Entries already in
	// b.order stay valid when it grows.
	horizon := len(b.order)
	fresh := b.fresh(best, bestMask, horizon)
	best.horizon = horizon

	for _, c := range fresh {
		if maskSubset(c.mask, bestMask) {
			best.subs = append(best.subs, c)
		}
		if maskSubset(bestMask, c.mask) {
			best.sups = append(best.sups, c)
		}
	}
	for _, subset := range best.subs {
		subset.rmask = b.setRBit(subset.rmask, ri)
		for _, superset := range best.sups {
			subset.rmask = orMask(subset.rmask, superset.rmask)
		}
	}

	for _, c := range fresh {
		if c == best {
			continue
		}
		// Intersect into scratch; only popcount ≥ 2 overlaps ever touch
		// the cluster map or allocate.
		nw := min(len(c.mask), len(bestMask))
		if cap(b.iw) < nw {
			b.iw = make([]uint64, nw)
		}
		inter := b.iw[:nw]
		pop := 0
		for i := 0; i < nw; i++ {
			inter[i] = c.mask[i] & bestMask[i]
			pop += bits.OnesCount64(inter[i])
		}
		// An intersection that is c or best itself exists already.
		if pop <= 1 || pop == len(c.Offers) || pop == len(best.Offers) {
			continue
		}
		dup, h := b.find(inter)
		if dup != nil {
			continue
		}
		nc := newCluster(b.offersOf(inter), b.cloneMask(inter))
		nc.rmask = b.setRBit(nc.rmask, ri)
		nc.rmask = orMask(nc.rmask, c.rmask)
		b.put(h, nc)
	}
}

// fresh returns the clusters of order[best.horizon:horizon] that share
// an offer with bestMask, in creation order, plus, when it scans, the
// ones that do not. A cluster disjoint from the best set is neither a
// subset, a superset nor a ≥ 2-offer intersection of it, so Update
// gets the same result from either. The walk over the best set's
// posting lists dedupes with a per-call stamp and sorts what it
// collects by creation index, which keeps step 3's creations in
// Algorithm 2's order. It is taken only when the lists are shorter
// than the stretch of order it replaces: a best set in a small
// neighbourhood of a large market walks, one whose offers sit in most
// clusters scans.
func (b *Builder) fresh(best *Cluster, bestMask []uint64, horizon int) []*Cluster {
	total := 0
	for wi, w := range bestMask {
		for ; w != 0; w &= w - 1 {
			total += len(b.post[wi*64+bits.TrailingZeros64(w)])
		}
	}
	if total >= horizon-best.horizon {
		return b.order[best.horizon:horizon:horizon]
	}
	b.stamp++
	cand := b.cand[:0]
	for wi, w := range bestMask {
		for ; w != 0; w &= w - 1 {
			list := b.post[wi*64+bits.TrailingZeros64(w)]
			// Lists are in creation order, and nothing was put since
			// horizon was fixed: the window is list[lo:].
			lo, _ := slices.BinarySearchFunc(list, best.horizon, func(c *Cluster, h int) int { return c.idx - h })
			for _, c := range list[lo:] {
				if c.stamp != b.stamp {
					c.stamp = b.stamp
					cand = append(cand, c)
				}
			}
		}
	}
	slices.SortFunc(cand, func(x, y *Cluster) int { return x.idx - y.idx })
	b.cand = cand
	return cand
}

// Clusters returns the built clusters in deterministic creation order,
// dropping clusters that never attracted any request. It materializes
// each cluster's Requests slice from its membership mask; the final
// canonical (Submitted, ID) sort makes the result independent of bit
// assignment order.
//
// Clusters is terminal for the epoch: every cluster's mask, rmask and
// memo are severed (the builder's Reset may recycle their memory), and
// the Requests slices are capacity-pinned views of one shared backing
// array. Clusters therefore stay valid — and never mutate each other —
// arbitrarily far past the builder's next Reset.
func (b *Builder) Clusters() []*Cluster {
	out := make([]*Cluster, 0, len(b.order))
	total := 0
	for _, c := range b.order {
		c.subs, c.sups, c.horizon = nil, nil, 0
		n := 0
		for _, w := range c.rmask {
			n += bits.OnesCount64(w)
		}
		if n == 0 {
			c.mask, c.rmask, c.next = nil, nil, nil
			continue
		}
		total += n
		out = append(out, c)
	}
	all := make([]*bidding.Request, 0, total)
	for _, c := range out {
		start := len(all)
		for wi, w := range c.rmask {
			for ; w != 0; w &= w - 1 {
				all = append(all, b.reqUniverse[wi*64+bits.TrailingZeros64(w)])
			}
		}
		c.Requests = all[start:len(all):len(all)]
		sortRequests(c.Requests)
		c.mask, c.rmask, c.next = nil, nil, nil
	}
	return out
}

func sortRequests(rs []*bidding.Request) {
	// (Submitted, ID) is a total order — IDs are unique per block.
	slices.SortFunc(rs, func(a, b *bidding.Request) int {
		if c := cmp.Compare(a.Submitted, b.Submitted); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// BuildIndex runs the clustering pass over a prebuilt block index. Only
// the best-offer scoring is parallel: the UPDATECLUSTERS pass consumes
// the precomputed best-offer sets in the index's canonical request
// order, because cluster formation is inherently order-dependent
// (intersection clusters depend on which clusters already exist). The
// result is therefore identical for any worker count.
func BuildIndex(ix *match.Index, cfg match.Config, workers int) []*Cluster {
	best := match.BestOffersAll(ix, cfg, workers)
	b := NewBuilder()
	for i, r := range ix.Requests() {
		b.Update(r, best[i])
	}
	return b.Clusters()
}
