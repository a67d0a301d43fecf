package auction

import (
	"math"
	"testing"

	"decloud/internal/obs"
	"decloud/internal/workload"
)

// clearWork clears the seed-1 paper-shaped market of n requests and
// returns the exact work counts MechanismMetrics kept: the top-k loop's
// scans, the clusters formed, their request memberships and the
// pre-pass's ν evaluations, with the market's order count.
func clearWork(n int) (scans, clusters, members, nu int64, orders int) {
	m := workload.Generate(workload.Config{Seed: 1, Requests: n})
	cfg := DefaultConfig()
	cfg.Evidence = []byte("work")
	cfg.Obs = obs.NewMechanismMetrics(obs.NewRegistry())
	Run(m.Requests, m.Offers, cfg)
	return cfg.Obs.TopKScans.Value(), cfg.Obs.Clusters.Value(), cfg.Obs.Memberships.Value(), cfg.Obs.NuEvaluations.Value(), len(m.Requests) + len(m.Offers)
}

// TestClearWorkScales gates how the clear's work scales on the paper's
// market with counts, which cannot flake on a starved runner the way
// timings do. Before offer classes the top-k loop scanned 0.85 ×
// requests × offers: 1 142 595 at 2 000 requests and 17 956 923 at
// 8 000, an exponent of 1.99. The ceilings hold the 8 000-request count
// to a tenth of that and the exponent to 1.2; the cluster count pins
// that the clear formed the same market. Cluster membership (Σ requests
// per cluster) is pinned exactly: 100 083 at 2 000 requests, 444 105 at
// 8 000. The pre-pass computes each order's ν once per scale (K_CL,
// M_CL, K_CR), not once per membership; nearly every cluster shares one
// scale, so its ν evaluations are pinned too and may not exceed the
// orders. Lower the ceilings as the search gets cheaper; a timing on a
// shared runner could not hold them. scripts/ci.sh prints the counts
// from its verbose test log.
func TestClearWorkScales(t *testing.T) {
	s2, c2, m2, nu2, o2 := clearWork(2000)
	s8, _, m8, nu8, o8 := clearWork(8000)
	exp := math.Log(float64(s8)/float64(s2)) / math.Log(4)
	t.Logf("top-k scans: %d at 2 000 requests, %d at 8 000 (exponent %.2f); clusters at 2 000: %d", s2, s8, exp, c2)
	t.Logf("memberships: %d at 2 000 requests, %d at 8 000; ν evaluations: %d of %d orders, %d of %d", m2, m8, nu2, o2, nu8, o8)
	if s8 > 17956923/10 {
		t.Errorf("top-k scans at 8 000 requests = %d, above a tenth of the quadratic scan's 17 956 923", s8)
	}
	if exp > 1.2 {
		t.Errorf("top-k scan exponent from 2 000 to 8 000 requests = %.2f, above 1.2", exp)
	}
	if c2 != 760 {
		t.Errorf("clusters at 2 000 requests = %d, want 760", c2)
	}
	if m2 != 100083 || m8 != 444105 {
		t.Errorf("memberships = %d at 2 000 requests and %d at 8 000, want 100 083 and 444 105", m2, m8)
	}
	if nu2 != 2080 || nu8 != 8079 || nu2 > int64(o2) || nu8 > int64(o8) {
		t.Errorf("ν evaluations = %d at 2 000 requests and %d at 8 000, want 2 080 and 8 079, each at most the orders (%d, %d)", nu2, nu8, o2, o8)
	}
}
