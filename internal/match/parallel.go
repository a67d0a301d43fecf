package match

import (
	"decloud/internal/bidding"
	"decloud/internal/par"
)

// BestOffersAll computes every request's best-offer set from the block
// index, fanning the per-request scoring across at most workers
// goroutines. Each request's set is a pure function of the index and
// cfg — no shared mutable state beyond per-worker scratch buffers, and
// every goroutine writes only its own result slot — so the output is
// exactly what a sequential loop over Index.BestOffers would produce,
// at any worker count — and what the brute-force scan-and-sort matcher
// (BestOffers, the reference) returns for each request.
func BestOffersAll(ix *Index, cfg Config, workers int) [][]*bidding.Offer {
	reqs := ix.Requests()
	out := make([][]*bidding.Offer, len(reqs))
	if workers < 1 {
		workers = 1
	}
	scratch := make([]Scratch, workers)
	par.ForEachWorker(workers, len(reqs), func(w, i int) {
		out[i] = ix.BestOffers(i, cfg, &scratch[w])
	})
	return out
}
