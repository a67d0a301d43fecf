package auction

import (
	"maps"

	"decloud/internal/bidding"
	"decloud/internal/miniauction"
	"decloud/internal/par"
	"decloud/internal/resource"
)

// Parallel mini-auction execution.
//
// Mini-auctions are NOT automatically independent: Algorithm 2's
// intersection clusters let one order appear in several clusters, and a
// cluster on a shared tree prefix appears on several root-to-leaf
// paths. All cross-auction coupling, however, flows through state keyed
// by order — the capacity tracker (offer IDs), the taken set
// (requests), and the reduction/lottery bookkeeping — so auctions
// whose member clusters share no order can neither observe nor affect
// each other. We therefore partition the auctions into order-disjoint
// components (union-find over order footprints), execute each component
// sequentially in auction-index order against its own blockState, and
// merge: trades are emitted in global auction-index order and the
// bookkeeping maps are unioned (their key sets are disjoint across
// components). Interleaving auctions of disjoint components commutes,
// so this reproduces the sequential execution byte for byte — the
// property internal/auction/paralleltest enforces.

// clusterFootprint lists every order ID a cluster's execution can read
// or write, as strings for miniauction.IndependentGroups. It uses the
// raw cluster membership (a superset of the economics-filtered orders),
// which can only over-merge components, never under-merge.
func clusterFootprint(cs clusterStats) []string {
	cl := cs.ec.Cluster
	ids := make([]string, 0, len(cl.Requests)+len(cl.Offers))
	for _, r := range cl.Requests {
		ids = append(ids, string(r.ID))
	}
	for _, o := range cl.Offers {
		ids = append(ids, string(o.ID))
	}
	return ids
}

// runAuctionsParallel executes the mini-auctions across the worker pool
// and fills in the outcome exactly as the sequential loop would.
func runAuctionsParallel(out *Outcome, auctions []miniauction.Auction, all []clusterStats, cfg Config, pairOK func(EconRequest, EconOffer) bool, evidence []byte, workers int, kinds []resource.Kind, requests []*bidding.Request) {
	groups := miniauction.IndependentGroups(auctions, func(ci int) []string {
		return clusterFootprint(all[ci])
	})

	shared := newBlockState(kinds, len(requests), nil)
	states := make([]*blockState, len(groups))
	matchesByAuction := make([][]Match, len(auctions))
	par.ForEach(workers, len(groups), func(gi int) {
		st := *shared // the request-side sets, written at disjoint positions
		st.pk, st.reducedOff = newPacker(), make(map[bidding.OrderID]bool)
		for _, ai := range groups[gi] {
			// Each auction keeps its global index: the evidence-keyed
			// lotteries are labeled by it, so scheduling must not
			// change which lottery an auction draws.
			matchesByAuction[ai] = runMiniAuction(ai, auctions[ai], all, cfg, pairOK, evidence, &st, nil)
		}
		states[gi] = &st
	})

	// Canonical merge: trades in auction-index order (what the
	// sequential loop emits), the offer-side maps unioned — key sets are
	// disjoint across components, so union order is immaterial.
	for _, ms := range matchesByAuction {
		out.Matches = append(out.Matches, ms...)
	}
	for _, st := range states {
		maps.Copy(shared.reducedOff, st.reducedOff) // every value is true
	}
	finalize(out, requests, shared)
}
