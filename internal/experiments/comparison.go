package experiments

import (
	"fmt"

	"decloud/internal/auction"
	"decloud/internal/baseline"
	"decloud/internal/workload"
)

// RunMechanismComparison pits DeCloud against the classical corners of
// the mechanism-design triangle on identical small markets (small enough
// for the exact solver VCG needs):
//
//   - exact optimum — welfare-maximal, not a mechanism;
//   - VCG — welfare-optimal and DSIC, but not budget balanced;
//   - greedy benchmark — near-optimal welfare, not truthful;
//   - DeCloud — DSIC and strongly budget balanced, pays with welfare.
//
// Returned per mechanism: mean welfare as a fraction of the optimum and
// mean budget imbalance (Σ revenues − Σ payments; 0 = strongly balanced).
type ComparisonRow struct {
	Mechanism   string
	WelfareFrac Summary
	Imbalance   Summary
	Truthful    string
}

// RunMechanismComparison runs reps random markets of the given size.
// Sizes must stay within baseline.MaxRequests for VCG to be exact.
func RunMechanismComparison(requests, providers, reps int, seed int64) []ComparisonRow {
	if reps == 0 {
		reps = 1
	}
	var vcgFrac, benchFrac, decloudFrac []float64
	var vcgImb, benchImb, decloudImb []float64
	for rep := 0; rep < reps; rep++ {
		market := workload.Generate(workload.Config{
			Seed:     seed + int64(rep)*7919,
			Requests: requests, Providers: providers,
		})
		opt := baseline.Solve(market.Requests, market.Offers)
		if opt.Welfare <= 0 {
			continue
		}
		vcg := baseline.RunVCG(market.Requests, market.Offers)
		bench := auction.RunGreedy(market.Requests, market.Offers, auction.DefaultConfig())
		acfg := auction.DefaultConfig()
		acfg.Evidence = []byte(fmt.Sprintf("cmp-%d", rep))
		mech := auction.Run(market.Requests, market.Offers, acfg)

		vcgFrac = append(vcgFrac, vcg.Welfare/opt.Welfare)
		benchFrac = append(benchFrac, bench.Welfare()/opt.Welfare)
		decloudFrac = append(decloudFrac, mech.Welfare()/opt.Welfare)
		vcgImb = append(vcgImb, vcg.Deficit)
		benchImb = append(benchImb, 0) // the benchmark defines no payments
		decloudImb = append(decloudImb, mech.TotalRevenues()-mech.TotalPayments())
	}
	return []ComparisonRow{
		{Mechanism: "optimum", WelfareFrac: Summarize(ones(len(vcgFrac))), Imbalance: Summarize(nil), Truthful: "n/a"},
		{Mechanism: "vcg", WelfareFrac: Summarize(vcgFrac), Imbalance: Summarize(vcgImb), Truthful: "yes"},
		{Mechanism: "greedy-benchmark", WelfareFrac: Summarize(benchFrac), Imbalance: Summarize(benchImb), Truthful: "no"},
		{Mechanism: "decloud", WelfareFrac: Summarize(decloudFrac), Imbalance: Summarize(decloudImb), Truthful: "yes (ε on heterogeneous)"},
	}
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// ComparisonTable renders the mechanism comparison.
func ComparisonTable(rows []ComparisonRow) *Table {
	t := &Table{
		Title:  "Comparison — mechanism-design tradeoffs on identical markets",
		Note:   "imbalance = Σ revenues − Σ payments (0 = strongly budget balanced; VCG generally ≠ 0)",
		Header: []string{"mechanism", "welfare_frac_mean", "welfare_frac_min", "imbalance_mean", "truthful"},
	}
	for _, r := range rows {
		t.AddRow(r.Mechanism, r.WelfareFrac.Mean, r.WelfareFrac.Min, r.Imbalance.Mean, r.Truthful)
	}
	return t
}
