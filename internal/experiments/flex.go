package experiments

import (
	"fmt"
	"sort"

	"decloud/internal/auction"
	"decloud/internal/workload"
)

// FlexConfig drives the flexibility study behind Figures 5d–5f: markets
// whose supply and demand distributions diverge by a controlled amount,
// evaluated at several client flexibility levels.
type FlexConfig struct {
	// Skews are the divergence levels to sweep (0 = identical
	// distributions, 1 = demand concentrated on the scarcest class).
	Skews []float64
	// FlexLevels are the request flexibilities to evaluate. 1 (or 0)
	// means inflexible — clients take 100% of requested resources.
	FlexLevels []float64
	// Requests and Providers size each market.
	Requests, Providers int
	// Reps is the number of independent markets per (skew, flexibility).
	Reps int
	// Seed anchors all randomness.
	Seed int64
}

// DefaultFlexConfig mirrors the paper's study: flexibility levels down to
// 60% against a full range of divergences. Supply roughly matches demand
// in count — flexibility can only help when the abundant (small) machine
// classes have idle capacity for flexible clients to fall back to.
func DefaultFlexConfig() FlexConfig {
	return FlexConfig{
		Skews:      []float64{0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9},
		FlexLevels: []float64{1.0, 0.9, 0.8, 0.7, 0.6},
		Requests:   200,
		Providers:  170,
		Reps:       5,
		Seed:       42,
	}
}

// FlexPoint is one (flexibility, skew) sweep cell aggregated over reps.
type FlexPoint struct {
	Flexibility  float64
	Skew         float64
	Similarity   float64 // mean realized 1 − KLD(demand ‖ supply)
	Satisfaction Summary
	Welfare      Summary
}

// RunFlexSweep evaluates every (flexibility, skew) cell.
func RunFlexSweep(cfg FlexConfig) []FlexPoint {
	if cfg.Reps == 0 {
		cfg.Reps = 1
	}
	var points []FlexPoint
	for _, flex := range cfg.FlexLevels {
		for _, skew := range cfg.Skews {
			var sims, sats, wels []float64
			for rep := 0; rep < cfg.Reps; rep++ {
				seed := cfg.Seed + int64(rep)*7919 + int64(skew*1000)*13 + int64(flex*1000)*17
				effFlex := flex
				if effFlex >= 1 {
					effFlex = 0 // bidding.Flexibility zero value = inflexible
				}
				market, sim := workload.GenerateDivergent(workload.DivergentConfig{
					Config: workload.Config{
						Seed:        seed,
						Requests:    cfg.Requests,
						Providers:   cfg.Providers,
						Flexibility: effFlex,
					},
					Skew: skew,
				})
				acfg := auction.DefaultConfig()
				acfg.Evidence = []byte(fmt.Sprintf("flex-%v-%v-%d", flex, skew, rep))
				acfg.StrictReduction = true
				out := auction.Run(market.Requests, market.Offers, acfg)
				sims = append(sims, sim)
				sats = append(sats, out.Satisfaction(len(market.Requests)))
				wels = append(wels, out.Welfare())
			}
			points = append(points, FlexPoint{
				Flexibility:  flex,
				Skew:         skew,
				Similarity:   Mean(sims),
				Satisfaction: Summarize(sats),
				Welfare:      Summarize(wels),
			})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].Flexibility != points[j].Flexibility {
			return points[i].Flexibility > points[j].Flexibility
		}
		return points[i].Similarity < points[j].Similarity
	})
	return points
}

// filterFlex keeps points at the given flexibility levels.
func filterFlex(points []FlexPoint, levels ...float64) []FlexPoint {
	keep := make(map[float64]bool, len(levels))
	for _, l := range levels {
		keep[l] = true
	}
	var out []FlexPoint
	for _, p := range points {
		if keep[p.Flexibility] {
			out = append(out, p)
		}
	}
	return out
}

// Fig5d builds the satisfaction-vs-similarity comparison between
// inflexible clients and 80%-flexible clients (Figure 5d: "80%
// flexibility results in stably higher satisfaction").
func Fig5d(points []FlexPoint) *Table {
	t := &Table{
		Title:  "Figure 5d — Satisfaction vs similarity: inflexible vs 80% flexibility",
		Note:   "similarity = 1 − KLD(requests ‖ offers); satisfaction = fraction of allocated requests",
		Header: []string{"flexibility", "similarity", "satisfaction_mean", "satisfaction_ci95"},
	}
	for _, p := range filterFlex(points, 1.0, 0.8) {
		t.AddRow(p.Flexibility, p.Similarity, p.Satisfaction.Mean, p.Satisfaction.CI95)
	}
	return t
}

// Fig5e builds the full satisfaction-vs-similarity family across all
// flexibility levels (Figure 5e).
func Fig5e(points []FlexPoint) *Table {
	t := &Table{
		Title:  "Figure 5e — Satisfaction vs similarity across flexibility levels",
		Note:   "one series per flexibility level",
		Header: []string{"flexibility", "similarity", "satisfaction_mean", "satisfaction_ci95"},
	}
	for _, p := range points {
		t.AddRow(p.Flexibility, p.Similarity, p.Satisfaction.Mean, p.Satisfaction.CI95)
	}
	return t
}

// Fig5f builds the welfare-vs-similarity family (Figure 5f).
func Fig5f(points []FlexPoint) *Table {
	t := &Table{
		Title:  "Figure 5f — Welfare vs similarity across flexibility levels",
		Note:   "welfare computed against true valuations and costs (Eq. 3)",
		Header: []string{"flexibility", "similarity", "welfare_mean", "welfare_ci95"},
	}
	for _, p := range points {
		t.AddRow(p.Flexibility, p.Similarity, p.Welfare.Mean, p.Welfare.CI95)
	}
	return t
}
