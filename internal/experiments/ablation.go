package experiments

import (
	"fmt"

	"decloud/internal/auction"
	"decloud/internal/workload"
)

// The ablation experiments quantify DESIGN.md's two headline design
// choices:
//
//  1. Trade-reduction scope — per mini-auction (pooled, the efficient
//     reading of Algorithm 4) versus per cluster (strict, the
//     conservative reading the paper's Figure 5c numbers match).
//  2. Best-offer set width — the quality band that decides how many
//     near-best offers seed a request's cluster, which gates how much
//     client flexibility can help (Section IV-B).

// AblationPoint is one variant × market-size observation.
type AblationPoint struct {
	Variant  string
	Requests int
	Ratio    float64 // DeCloud/benchmark welfare
	LostPct  float64 // trades lost vs benchmark, %
}

// RunReductionAblation compares pooled and strict trade reduction across
// market sizes.
func RunReductionAblation(sizes []int, reps int, seed int64) []AblationPoint {
	if reps == 0 {
		reps = 1
	}
	var points []AblationPoint
	for _, variant := range []string{"pooled", "strict"} {
		for _, n := range sizes {
			var ratio, lost float64
			var counted int
			for rep := 0; rep < reps; rep++ {
				market := workload.Generate(workload.Config{Seed: seed + int64(n)*131 + int64(rep)*7919, Requests: n})
				acfg := auction.DefaultConfig()
				acfg.Evidence = []byte(fmt.Sprintf("ablation-%s-%d-%d", variant, n, rep))
				acfg.StrictReduction = variant == "strict"
				out := auction.Run(market.Requests, market.Offers, acfg)
				bench := auction.RunGreedy(market.Requests, market.Offers, auction.DefaultConfig())
				if bench.Welfare() <= 0 || len(bench.Matches) == 0 {
					continue
				}
				ratio += out.Welfare() / bench.Welfare()
				lost += 100 * float64(len(bench.Matches)-len(out.Matches)) / float64(len(bench.Matches))
				counted++
			}
			if counted == 0 {
				continue
			}
			points = append(points, AblationPoint{
				Variant:  variant,
				Requests: n,
				Ratio:    ratio / float64(counted),
				LostPct:  lost / float64(counted),
			})
		}
	}
	return points
}

// RunBandAblation compares quality-band widths on a divergent market with
// flexible clients: a tight band hides the lower-class machines a
// flexible request could fall back to.
func RunBandAblation(bands []float64, requests, providers, reps int, seed int64) []AblationPoint {
	if reps == 0 {
		reps = 1
	}
	var points []AblationPoint
	for _, band := range bands {
		var sat float64
		var counted int
		for rep := 0; rep < reps; rep++ {
			market, _ := workload.GenerateDivergent(workload.DivergentConfig{
				Config: workload.Config{
					Seed: seed + int64(rep)*7919, Requests: requests,
					Providers: providers, Flexibility: 0.7,
				},
				Skew: 0.7,
			})
			acfg := auction.DefaultConfig()
			acfg.Match.QualityBand = band
			acfg.Evidence = []byte(fmt.Sprintf("band-%v-%d", band, rep))
			out := auction.Run(market.Requests, market.Offers, acfg)
			sat += out.Satisfaction(requests)
			counted++
		}
		points = append(points, AblationPoint{
			Variant:  fmt.Sprintf("band=%.2f", band),
			Requests: requests,
			Ratio:    sat / float64(counted), // satisfaction, see table header
		})
	}
	return points
}

// ReductionAblationTable renders the trade-reduction ablation.
func ReductionAblationTable(points []AblationPoint) *Table {
	t := &Table{
		Title:  "Ablation — trade-reduction scope (pooled mini-auction vs per-cluster)",
		Note:   "pooled = one exclusion per mini-auction; strict = one per cluster (paper's Fig 5c magnitudes)",
		Header: []string{"variant", "requests", "welfare_ratio", "lost_trades_pct"},
	}
	for _, p := range points {
		t.AddRow(p.Variant, p.Requests, p.Ratio, p.LostPct)
	}
	return t
}

// BandAblationTable renders the quality-band ablation.
func BandAblationTable(points []AblationPoint) *Table {
	t := &Table{
		Title:  "Ablation — best-offer quality band vs satisfaction of flexible clients",
		Note:   "divergent market (skew 0.7), flexibility 0.7; satisfaction in the ratio column",
		Header: []string{"variant", "requests", "satisfaction"},
	}
	for _, p := range points {
		t.AddRow(p.Variant, p.Requests, p.Ratio)
	}
	return t
}
