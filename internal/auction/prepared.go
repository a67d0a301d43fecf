package auction

import (
	"slices"
	"strings"

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
// The CALLER owns the preconditions: entries are keyed by membership
// only, so the cache must be flushed (Flush) whenever the normalization
// scale changes or an order ID is re-used with different contents —
// internal/book tracks both. Caching is disabled automatically when the
// config carries a reputation source (reputation scores can move
// between blocks) or runs the reference matcher.
//
// The zero value is ready to use.
type PrepassCache struct {
	entries map[string]clusterStats
	kinds   []resource.Kind // the kind table the entries' rows are laid out over
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

// prepassSignature is the cache key of a cluster: offer-set identity
// (Cluster.Key, sorted offer IDs) plus the sorted member request IDs.
// Two clusters with equal signatures have identical membership, and the
// pre-pass depends on nothing else once the caller guarantees a stable
// scale and stable order contents per ID.
func prepassSignature(cl *cluster.Cluster) string {
	n := len(cl.Key()) + len(cl.Requests)
	for _, r := range cl.Requests {
		n += len(r.ID)
	}
	var sb strings.Builder
	sb.Grow(n)
	sb.WriteString(cl.Key())
	sb.WriteByte('\x01')
	for i, r := range cl.Requests {
		if i > 0 {
			sb.WriteByte('\x02')
		}
		sb.WriteString(string(r.ID))
	}
	return sb.String()
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

// prePassAll pre-passes every cluster, each in isolation against fresh
// capacity, writing only its own slot — so the fan-out is exact. With a
// usable cache, unchanged clusters reuse last round's stats; the map is
// read-only during the fan-out and replaced wholesale afterwards, which
// prunes vanished clusters. Cached rows are laid out over the kind table
// they were copied under: under another table the cache is not read.
func prePassAll(clusters []*cluster.Cluster, kinds []resource.Kind, cfg Config, econ econPass, cache *PrepassCache) []clusterStats {
	workers := effectiveWorkers(cfg)
	pairOK := pairGate(cfg)
	all := make([]clusterStats, len(clusters))
	useCache := cache.cacheable(cfg)
	var sigs []string
	if useCache {
		if !slices.Equal(cache.kinds, kinds) {
			cache.entries = nil
		}
		sigs = make([]string, len(clusters))
		for i, cl := range clusters {
			sigs[i] = prepassSignature(cl)
		}
	}
	pks := make([]*packer, workers)
	for w := range pks {
		pks[w] = newPacker(cfg)
	}
	par.ForEachWorker(workers, len(clusters), func(w, i int) {
		if useCache {
			if st, ok := cache.entries[sigs[i]]; ok {
				all[i] = st
				return
			}
		}
		all[i] = prePass(econ(clusters[i]), pairOK, pks[w])
	})
	if useCache {
		next := make(map[string]clusterStats, len(clusters))
		for i := range all {
			next[sigs[i]] = all[i]
		}
		cache.entries = next
		cache.kinds = append(cache.kinds[:0], kinds...) // a copy: ix is epoch scratch
	}
	return all
}

// runClustered is the tail of the mechanism shared by Run and
// RunPrepared: everything downstream of cluster formation. It mutates
// out and drives the phase timer through the prepass and auction laps.
func runClustered(out *Outcome, ix *match.Index, clusters []*cluster.Cluster, cfg Config, pt *phaseTimer, cache *PrepassCache, econ econPass) {
	workers := effectiveWorkers(cfg)
	out.Clusters = len(clusters)
	all := prePassAll(clusters, ix.Kinds(), cfg, econ, cache)
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
		runAuctionsParallel(out, auctions, all, cfg, pairOK, evidence, workers, ix.Kinds())
	} else {
		st := newBlockState(cfg)
		for ai := range auctions {
			for _, tr := range runMiniAuction(ai, auctions[ai], all, cfg, pairOK, evidence, st) {
				recordMatch(out, ix.Kinds(), tr.ec, tr.a, tr.price)
			}
		}
		finalize(out, st.taken, st.reducedReq, st.reducedOff, st.lottery)
	}
	pt.lapAuctions()
	pt.finish(out, ix)
}
