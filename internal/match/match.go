// Package match implements DeCloud's matching heuristic (Section IV-B):
// the quality-of-match score of Eq. 18, structural feasibility filtering
// (Const. 8, 10, 11), and the selection of a request's best-offer set
// that seeds the clustering of Algorithm 2.
package match

import (
	"cmp"
	"slices"

	"decloud/internal/bidding"
	"decloud/internal/resource"
)

// Config tunes the matching heuristic. The zero value is not usable;
// call DefaultConfig.
type Config struct {
	// QualityBand ∈ (0, 1]: offers whose quality is at least
	// QualityBand × (best quality) belong to the request's best-offer
	// set. 1 keeps only ties with the single best offer.
	QualityBand float64

	// MaxBestOffers caps the size of the best-offer set so that cluster
	// offer-sets stay small and comparable.
	MaxBestOffers int
}

// DefaultConfig returns the tuning used throughout the evaluation. The
// band is deliberately generous: feasibility (including the request's
// flexibility) already filters offers, so the band's job is only to drop
// clearly inferior matches — a tight band would exclude exactly the
// lower-class machines that a flexible request wants as fallbacks.
func DefaultConfig() Config {
	return Config{QualityBand: 0.5, MaxBestOffers: 12}
}

// Feasible reports whether offer o can structurally host request r:
// the offer's availability covers the request's window (Const. 10–11),
// the offer lies within the request's locality constraint ℓ_r, the
// orders share at least one resource kind, and the offer has enough of
// every requested resource after applying the request's flexibility
// (Const. 8, relaxed by f).
func Feasible(r *bidding.Request, o *bidding.Offer) bool {
	_, ok := feasibleCommon(r, o)
	return ok
}

// feasibleCommon is Feasible with the K_r ∩ K_o intersection it already
// had to compute handed back, so the Feasible→Quality call chain does
// one CommonKinds per pair instead of two.
func feasibleCommon(r *bidding.Request, o *bidding.Offer) ([]resource.Kind, bool) {
	if !bidding.TimeCompatible(r, o) {
		return nil, false
	}
	if !r.WithinReach(o) {
		return nil, false
	}
	common := r.Resources.CommonKinds(o.Resources)
	if len(common) == 0 {
		return nil, false
	}
	if !o.Resources.CoversFraction(r.Resources, r.Flex()) {
		return nil, false
	}
	return common, true
}

// Quality computes q_{(r,o)} per Eq. 18:
//
//	q = Σ_{k ∈ K_r ∩ K_o} σ_{r,k} · ρ'_{o,k} / (|ρ'_{o,k} − ρ'_{r,k}|² + 1)
//
// where ρ' are quantities normalized by scale (the block-wide maxima).
// Offers exert a "gravity-like force": bigger offers score higher, but
// the quadratic distance term pulls the score toward offers resembling
// the request, and σ lets clients weight which dimensions matter.
func Quality(r *bidding.Request, o *bidding.Offer, scale *resource.Scale) float64 {
	return qualityKinds(r, o, scale, r.Resources.CommonKinds(o.Resources))
}

// qualityKinds is Quality over a precomputed K_r ∩ K_o (sorted, as
// CommonKinds returns it — the accumulation order is consensus-
// critical).
func qualityKinds(r *bidding.Request, o *bidding.Offer, scale *resource.Scale, common []resource.Kind) float64 {
	var q float64
	for _, k := range common {
		om := scale.Max(k)
		if om <= 0 {
			continue
		}
		no := o.Resources[k] / om
		nr := r.Resources[k] / om
		if nr > 1 {
			nr = 1
		}
		d := no - nr
		q += r.Weight(k) * no / (float64(d*d) + 1)
	}
	return q
}

// Ranked pairs an offer with its quality score for a particular request.
type Ranked struct {
	Offer   *bidding.Offer
	Quality float64
}

// RankOffers filters the offers feasible for r and ranks them by quality
// descending. Ties break toward the earlier-submitted offer and then the
// smaller ID, making the ranking fully deterministic — ties must not
// depend on input order, or verifying miners would disagree.
func RankOffers(r *bidding.Request, offers []*bidding.Offer, scale *resource.Scale) []Ranked {
	ranked := make([]Ranked, 0, len(offers))
	for _, o := range offers {
		common, ok := feasibleCommon(r, o)
		if !ok {
			continue
		}
		ranked = append(ranked, Ranked{Offer: o, Quality: qualityKinds(r, o, scale, common)})
	}
	// Total order (IDs are unique), so unstable sorting cannot differ.
	slices.SortFunc(ranked, func(a, b Ranked) int {
		return cmp.Or(cmp.Compare(b.Quality, a.Quality),
			cmp.Compare(a.Offer.Submitted, b.Offer.Submitted), cmp.Compare(a.Offer.ID, b.Offer.ID))
	})
	return ranked
}

// BestOffers returns the request's best-offer set: all feasible offers
// within cfg.QualityBand of the top quality, capped at cfg.MaxBestOffers,
// in rank order. An empty result means the request cannot be served this
// block.
//
// This is the brute-force reference selection — O(offers) scan plus a
// full sort. Block execution goes through Index.BestOffers, which
// produces the identical set with feasibility pruning and bounded top-k
// selection; this function remains as the equivalence oracle and for
// one-off callers without an index.
func BestOffers(r *bidding.Request, offers []*bidding.Offer, scale *resource.Scale, cfg Config) []*bidding.Offer {
	band := cfg.QualityBand
	if band <= 0 || band > 1 {
		band = DefaultConfig().QualityBand
	}
	limit := cfg.MaxBestOffers
	if limit <= 0 {
		limit = DefaultConfig().MaxBestOffers
	}
	return bestFromRanked(RankOffers(r, offers, scale), band, limit)
}

// bestFromRanked applies the quality-band cut and cap to a full ranking
// — the reference selection BestOffers uses.
func bestFromRanked(ranked []Ranked, band float64, limit int) []*bidding.Offer {
	if len(ranked) == 0 {
		return nil
	}
	cut := ranked[0].Quality * band
	best := make([]*bidding.Offer, 0, limit)
	for _, rk := range ranked {
		if rk.Quality < cut && len(best) > 0 {
			break
		}
		best = append(best, rk.Offer)
		if len(best) == limit {
			break
		}
	}
	return best
}

// BlockScale builds the per-block normalization scale from every request
// and offer in the block, per Section IV-B: "we take the maximum value of
// the resource from offers or requests of the current block".
func BlockScale(requests []*bidding.Request, offers []*bidding.Offer) *resource.Scale {
	scale := resource.NewScale()
	for _, r := range requests {
		scale.Extend(r.Resources)
	}
	for _, o := range offers {
		scale.Extend(o.Resources)
	}
	return scale
}
