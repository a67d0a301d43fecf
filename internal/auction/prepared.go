package auction

import (
	"slices"

	"decloud/internal/bidding"
	"decloud/internal/cluster"
	"decloud/internal/match"
	"decloud/internal/miniauction"
	"decloud/internal/par"
	"decloud/internal/resource"
)

// PrepassCache carries per-cluster pre-pass economics across successive
// clears of a long-lived order book (internal/book). The pre-pass of a
// cluster is a pure function of its membership, the normalization scale,
// and the static parts of the Config (critical set, capacity model) —
// it does not read the evidence or any cross-cluster state — so a
// cluster whose membership is unchanged since the previous clear can
// reuse its stats verbatim.
//
// The CALLER owns one precondition: the cache must be flushed (Flush)
// whenever the normalization scale changes — internal/book tracks it.
// Entries are keyed by the cluster's offer set (Cluster.Key, unique
// within one clear), and a hit is taken only when the cached cluster's
// member pointers equal the new cluster's, so a changed membership or an
// order ID re-used with other contents misses instead of reading stale
// economics. Caching is disabled automatically when the config carries
// a reputation source (reputation scores can move between blocks) or
// runs the reference matcher.
//
// The zero value is ready to use.
type PrepassCache struct {
	entries map[string]clusterStats
	kinds   []resource.Kind // the kind table the entries' rows are laid out over
	pk      *packer         // the mini-auctions' capacity and buffers, reused clear to clear
}

// packer returns the cache's mini-auction packer, emptied, so a
// long-lived book reuses its buffers; without a cache, a new one.
func (pc *PrepassCache) packer() *packer {
	if pc == nil {
		return newPacker()
	}
	if pc.pk == nil {
		pc.pk = newPacker()
	}
	clear(pc.pk.tr.at)
	pc.pk.tr.rem = pc.pk.tr.rem[:0]
	return pc.pk
}

// Flush drops every cached entry.
func (pc *PrepassCache) Flush() {
	if pc != nil {
		pc.entries = nil
	}
}

// cacheable reports whether the pre-pass may be cached under cfg: the
// reputation gate reads ledger state that changes between blocks.
func (pc *PrepassCache) cacheable(cfg Config) bool {
	return pc != nil && cfg.Reputation == nil
}

// RunPrepared executes the mechanism's post-clustering pipeline —
// pre-pass economics, mini-auction formation, pricing, trade reduction,
// lotteries, and capacity allocation — over a prebuilt index and
// cluster list. It is the entry point for the incremental order book,
// which maintains ix and clusters across rounds and re-derives only
// what its dirty-tracking proves stale; Run is exactly
// NewIndex + BuildIndex + RunPrepared, so for identical inputs the
// Outcome is byte-identical to the from-scratch path (the booktest
// differential harness enforces this).
//
// The index must have been built from already validated orders:
// RunPrepared performs no screening, so the outcome carries empty
// rejection lists unless the caller records rejects itself. The two
// leading order-set parameters are not read (ix carries the orders);
// they stay because benchmark/ calls this signature. cache may be nil
// (no caching).
func RunPrepared(_ []*bidding.Request, _ []*bidding.Offer, ix *match.Index, clusters []*cluster.Cluster, cfg Config, cache *PrepassCache) *Outcome {
	pt := startPhases(cfg.Obs)
	out := newOutcome()
	pt.lapIndex()
	pt.lapCluster()
	runClustered(out, ix, clusters, cfg, &pt, cache, indexedEcon(cfg, ix))
	return out
}

// cachedFor reports whether a cached entry was computed for exactly
// cl's orders: the same request and offer pointers, in the same order.
// Orders are immutable once admitted, so equal pointers mean equal
// contents.
func cachedFor(st clusterStats, cl *cluster.Cluster) bool {
	return slices.Equal(st.ec.Cluster.Requests, cl.Requests) && slices.Equal(st.ec.Cluster.Offers, cl.Offers)
}

// prePassAll pre-passes every cluster, each in isolation against fresh
// capacity, writing only its own slot — so the fan-out is exact. With a
// usable cache, unchanged clusters reuse last round's stats, their
// tables renumbered under ix, and only the others get economics, whose
// rows then outlive the index; the map is refilled afterwards, which
// prunes vanished clusters. Cached rows are laid out over the kind table
// they were copied under: under another table the cache is not read. It
// also returns the ν evaluations of the economics pass.
func prePassAll(clusters []*cluster.Cluster, ix *match.Index, cfg Config, econ econPass, cache *PrepassCache) ([]clusterStats, int) {
	all, kinds := make([]clusterStats, len(clusters)), ix.Kinds()
	useCache := cache.cacheable(cfg)
	if useCache && !slices.Equal(cache.kinds, kinds) {
		cache.entries = nil
	}
	miss, missed := make([]int, 0, len(clusters)), make([]*cluster.Cluster, 0, len(clusters))
	renumbered := make(map[*EconCluster]bool)
	for i, cl := range clusters {
		if useCache {
			if st, ok := cache.entries[cl.Key()]; ok && cachedFor(st, cl) {
				if all[i] = st; !renumbered[st.ec.table] {
					renumbered[st.ec.table] = true
					st.ec.table.renumber(ix)
				}
				continue
			}
		}
		miss, missed = append(miss, i), append(missed, cl)
	}
	ecs, nu := econ(missed, useCache)
	workers, pairOK := effectiveWorkers(cfg), pairGate(cfg)
	pks := make([]*packer, min(workers, len(miss)))
	for w := range pks {
		pks[w] = newPacker()
	}
	par.ForEachWorker(workers, len(miss), func(w, j int) {
		all[miss[j]] = prePass(ecs[j], pairOK, pks[w])
	})
	if useCache {
		if cache.entries == nil {
			cache.entries = make(map[string]clusterStats, len(clusters))
		}
		clear(cache.entries) // all holds the hits
		for i := range all {
			cache.entries[clusters[i].Key()] = all[i]
		}
		cache.kinds = append(cache.kinds[:0], kinds...) // a copy: ix is epoch scratch
	}
	return all, nu
}

// runClustered is the tail of the mechanism shared by Run and
// RunPrepared: everything downstream of cluster formation. It mutates
// out and drives the phase timer through the prepass and auction laps.
func runClustered(out *Outcome, ix *match.Index, clusters []*cluster.Cluster, cfg Config, pt *phaseTimer, cache *PrepassCache, econ econPass) {
	workers := effectiveWorkers(cfg)
	out.Clusters = len(clusters)
	all, nu := prePassAll(clusters, ix, cfg, econ, cache)
	pairOK := pairGate(cfg)
	pt.lapPrepass()

	var intervals []miniauction.Interval
	for i := range all {
		if all[i].active {
			intervals = append(intervals, miniauction.Interval{
				ID: i, Lo: all[i].cHatZ, Hi: all[i].vHatZ, Weight: all[i].welfare,
			})
		}
	}
	auctions := miniauction.Form(intervals)
	out.MiniAuctions = len(auctions)

	evidence := cfg.Evidence
	if evidence == nil {
		evidence = []byte("decloud/no-evidence")
	}

	// A single mini-auction — the dense market's usual case — is one
	// order-disjoint group by definition: partitioning it would only
	// rebuild every member's footprint to find that out.
	if workers > 1 && len(auctions) > 1 {
		runAuctionsParallel(out, auctions, all, cfg, pairOK, evidence, workers, ix.Kinds(), ix.Requests())
	} else {
		st := newBlockState(ix.Kinds(), len(ix.Requests()), cache.packer())
		for ai := range auctions {
			out.Matches = runMiniAuction(ai, auctions[ai], all, cfg, pairOK, evidence, st, out.Matches)
		}
		finalize(out, ix.Requests(), st)
	}
	pt.lapAuctions()
	pt.finish(out, ix, clusters, nu)
}
