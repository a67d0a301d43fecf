// Package cluster implements Algorithm 2 of the DeCloud paper: grouping
// requests with their best-offer sets into clusters. A cluster is
// identified by its offer set; its request set accumulates every request
// whose best offers contain (or intersect) that offer set. Within a
// cluster, any offer is an acceptable match for any member request.
//
// The builder represents offer sets as bitmasks over the block's offer
// universe (bits assigned in first-seen order), so Algorithm 2's subset
// and intersection tests — executed once per (request, existing cluster)
// pair — are word-wise AND/ANDN instead of per-offer map probes, and an
// intersection cluster is only materialized when its popcount proves it
// non-trivial. Cluster identity in the builder's map is the trimmed
// byte encoding of the mask, which is bijective with the offer set; the
// public Key() (sorted IDs) is unchanged and computed once per cluster.
//
// Request membership uses the same trick over a request universe:
// during Update a cluster's members are a bitmask, so inheriting a
// superset's requests is a word-wise OR instead of a per-request map
// probe — the dominant cost when the same market is re-clustered every
// round by the incremental book. Clusters() materializes the Requests
// slices (canonically sorted) once at the end.
package cluster

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"strings"

	"decloud/internal/arena"
	"decloud/internal/bidding"
	"decloud/internal/match"
	"decloud/internal/resource"
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

	offerIDs map[bidding.OrderID]bool
	mask     []uint64 // offer set over the builder's offer universe
	rmask    []uint64 // member requests over the builder's request universe
	key      string   // cached offerSetKey

	// Creation tag: the (Submitted, ID) canonical sort key of the
	// Update call that created this cluster, plus the creation sequence
	// within that call. Because Algorithm 2 runs Updates in canonical
	// request order and cluster formation factorizes over connected
	// components of the shares-a-best-offer graph, sorting any merge of
	// per-component cluster lists by this tag reconstructs exactly the
	// monolithic builder's creation order — the property the book's
	// component-granular reuse (book.clearLocked) depends on.
	cSub int64
	cID  bidding.OrderID
	cSeq int
}

// newCluster builds a cluster from an offer set and its builder mask.
// The Cluster struct, its Offers copy, the ID set, and the key are
// ordinary heap allocations on purpose: clusters outlive the build — the
// auction's prepass cache retains them across many later clears — while
// mask/rmask are builder-epoch scratch that Clusters() severs.
func newCluster(offers []*bidding.Offer, mask []uint64) *Cluster {
	c := &Cluster{
		Offers:   append([]*bidding.Offer(nil), offers...),
		offerIDs: make(map[bidding.OrderID]bool, len(offers)),
		mask:     mask,
	}
	sortOffers(c.Offers)
	for _, o := range offers {
		c.offerIDs[o.ID] = true
	}
	c.key = offerSetKey(c.Offers)
	return c
}

// HasOffer reports whether the offer belongs to the cluster's offer set.
func (c *Cluster) HasOffer(id bidding.OrderID) bool { return c.offerIDs[id] }

// HasRequest reports whether the request belongs to the cluster.
func (c *Cluster) HasRequest(id bidding.OrderID) bool {
	for _, r := range c.Requests {
		if r.ID == id {
			return true
		}
	}
	return false
}

// Key returns the canonical identity of the cluster's offer set: the
// sorted offer IDs joined with NUL. It labels the evidence-keyed
// lotteries of the mechanism, so its format is consensus-critical and
// independent of the builder's internal mask representation.
func (c *Cluster) Key() string { return c.key }

// Creator returns the ID of the request whose Update call created this
// cluster. The book's component reuse uses it to assign a rebuilt
// cluster to its creator's component.
func (c *Cluster) Creator() bidding.OrderID { return c.cID }

// SortByCreation orders clusters by their creation tag — the order the
// monolithic builder would have created them in. Merging reused and
// rebuilt per-component cluster lists and sorting with this restores
// the exact from-scratch cluster order (tags are unique: at most one
// Update call per request ID, and cSeq numbers creations within it).
func SortByCreation(cs []*Cluster) {
	slices.SortFunc(cs, func(a, b *Cluster) int {
		switch {
		case a.cSub < b.cSub:
			return -1
		case a.cSub > b.cSub:
			return 1
		}
		switch {
		case a.cID < b.cID:
			return -1
		case a.cID > b.cID:
			return 1
		}
		return a.cSeq - b.cSeq
	})
}

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
		switch {
		case a.Submitted < b.Submitted:
			return -1
		case a.Submitted > b.Submitted:
			return 1
		}
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
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

// Builder incrementally applies Algorithm 2's UPDATECLUSTERS procedure.
//
// A Builder is single-use by default (NewBuilder + Updates + Clusters),
// but a long-lived clearing loop can hold one across epochs: call Reset
// at each round boundary — and optionally Reserve with the round's order
// counts — and the maps, scratch slices, and the mask slab are reused
// instead of reallocated. Builders are not safe for concurrent use;
// each concurrent clearing loop owns its own.
type Builder struct {
	clusters map[string]*Cluster // keyed by trimmed mask bytes
	order    []string            // insertion order of mask keys, for determinism

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

	bm   []uint64         // scratch: the current request's best-offer mask
	iw   []uint64         // scratch: intersection words
	kb   []byte           // scratch: trimmed key bytes
	subs []*Cluster       // scratch: subset clusters of the current update
	sups []*Cluster       // scratch: superset clusters of the current update
	ob   []*bidding.Offer // scratch: offersOf output

	// Current Update's creation tag, stamped onto clusters by put.
	updSub int64
	updID  bidding.OrderID
	updSeq int
}

// NewBuilder returns an empty cluster builder.
func NewBuilder() *Builder {
	return &Builder{
		clusters: make(map[string]*Cluster),
		bitOf:    make(map[*bidding.Offer]int),
		reqBit:   make(map[bidding.OrderID]int),
	}
}

// Reset rewinds the builder for a new epoch, retaining map buckets,
// scratch slices, and mask-slab capacity. Clusters previously returned
// by Clusters() remain valid (they own their data); everything else the
// builder handed out becomes invalid.
func (b *Builder) Reset() {
	clear(b.clusters)
	b.order = b.order[:0]
	clear(b.bitOf)
	b.universe = b.universe[:0]
	clear(b.reqBit)
	b.reqUniverse = b.reqUniverse[:0]
	b.masks.Reset()
	b.rw = 0
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

// keyBytes encodes a mask as trimmed little-endian bytes into the
// builder's scratch buffer. The encoding is injective over offer sets
// regardless of how many words the mask was built with.
func (b *Builder) keyBytes(m []uint64) []byte {
	if cap(b.kb) < 8*len(m) {
		b.kb = make([]byte, 8*len(m))
	}
	kb := b.kb[:8*len(m)]
	for i, w := range m {
		binary.LittleEndian.PutUint64(kb[i*8:], w)
	}
	n := len(kb)
	for n > 0 && kb[n-1] == 0 {
		n--
	}
	return kb[:n]
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

// put registers a newly created cluster (both call sites construct c
// fresh), stamping it with the current Update's creation tag.
func (b *Builder) put(key string, c *Cluster) {
	c.cSub, c.cID, c.cSeq = b.updSub, b.updID, b.updSeq
	b.updSeq++
	if _, exists := b.clusters[key]; !exists {
		b.order = append(b.order, key)
	}
	b.clusters[key] = c
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
func (b *Builder) Update(r *bidding.Request, bestR []*bidding.Offer) {
	if len(bestR) == 0 {
		return
	}
	b.updSub, b.updID, b.updSeq = r.Submitted, r.ID, 0
	ri := b.internReq(r)
	bestMask := b.maskOf(bestR)
	bestKey := string(b.keyBytes(bestMask))
	if b.clusters[bestKey] == nil {
		b.put(bestKey, newCluster(bestR, b.cloneMask(bestMask)))
	}

	// Fix the horizon now: intersection clusters created below must not
	// themselves be revisited within this update. Entries already in
	// b.order stay valid when it grows.
	keys := b.order[:len(b.order):len(b.order)]

	subsets, supersets := b.subs[:0], b.sups[:0]
	for _, key := range keys {
		c := b.clusters[key]
		if maskSubset(c.mask, bestMask) {
			subsets = append(subsets, c)
		}
		if maskSubset(bestMask, c.mask) {
			supersets = append(supersets, c)
		}
	}
	b.subs, b.sups = subsets, supersets
	for _, subset := range subsets {
		subset.rmask = b.setRBit(subset.rmask, ri)
		for _, superset := range supersets {
			subset.rmask = orMask(subset.rmask, superset.rmask)
		}
	}

	for _, key := range keys {
		if key == bestKey {
			continue
		}
		c := b.clusters[key]
		// Intersect into scratch; only popcount ≥ 2 overlaps ever touch
		// the cluster map or allocate.
		nw := len(c.mask)
		if len(bestMask) < nw {
			nw = len(bestMask)
		}
		if cap(b.iw) < nw {
			b.iw = make([]uint64, nw)
		}
		inter := b.iw[:nw]
		pop := 0
		for i := 0; i < nw; i++ {
			inter[i] = c.mask[i] & bestMask[i]
			pop += bits.OnesCount64(inter[i])
		}
		if pop <= 1 {
			continue
		}
		if x := b.clusters[string(b.keyBytes(inter))]; x != nil {
			x.rmask = b.setRBit(x.rmask, ri)
		} else {
			nc := newCluster(b.offersOf(inter), b.cloneMask(inter))
			nc.rmask = b.setRBit(nc.rmask, ri)
			nc.rmask = orMask(nc.rmask, c.rmask)
			b.put(string(b.keyBytes(inter)), nc)
		}
	}
}

// Clusters returns the built clusters in deterministic creation order,
// dropping clusters that never attracted any request. It materializes
// each cluster's Requests slice from its membership mask; the final
// canonical (Submitted, ID) sort makes the result independent of bit
// assignment order.
//
// Clusters is terminal for the epoch: every returned cluster's mask and
// rmask are severed (the builder's Reset may recycle their memory), and
// the Requests slices are capacity-pinned views of one shared backing
// array. Clusters therefore stay valid — and never mutate each other —
// arbitrarily far past the builder's next Reset.
func (b *Builder) Clusters() []*Cluster {
	out := make([]*Cluster, 0, len(b.order))
	total := 0
	for _, key := range b.order {
		c := b.clusters[key]
		n := 0
		for _, w := range c.rmask {
			n += bits.OnesCount64(w)
		}
		if n == 0 {
			c.mask, c.rmask = nil, nil
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
		c.mask, c.rmask = nil, nil
	}
	return out
}

func sortRequests(rs []*bidding.Request) {
	// (Submitted, ID) is a total order — IDs are unique per block.
	slices.SortFunc(rs, func(a, b *bidding.Request) int {
		switch {
		case a.Submitted < b.Submitted:
			return -1
		case a.Submitted > b.Submitted:
			return 1
		}
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
}

// Build runs the full clustering pass of Algorithm 1's first loop: for
// every request (in deterministic order) compute the feasible offers,
// rank them by quality of match, take the best-offer set, and update the
// clusters. The scale must be the block-wide normalization scale.
func Build(requests []*bidding.Request, offers []*bidding.Offer, scale *resource.Scale, cfg match.Config) []*Cluster {
	return BuildWorkers(requests, offers, scale, cfg, 1)
}

// BuildWorkers is Build with the per-request best-offer scoring fanned
// out across at most workers goroutines. It compiles a throwaway block
// index; callers that also need the index afterwards (the mechanism
// shares it with the economics pre-pass) should build one and call
// BuildIndex.
func BuildWorkers(requests []*bidding.Request, offers []*bidding.Offer, scale *resource.Scale, cfg match.Config, workers int) []*Cluster {
	return BuildIndex(match.NewIndex(requests, offers, scale), cfg, workers)
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
