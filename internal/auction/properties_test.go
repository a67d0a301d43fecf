package auction

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"decloud/internal/bidding"
	"decloud/internal/cluster"
	"decloud/internal/match"
	"decloud/internal/miniauction"
	"decloud/internal/resource"
	"decloud/internal/workload"
)

// clientUtility computes u_r = v_r − p_r for client-owned requests
// against TRUE values, 0 when unmatched.
func clientUtility(out *Outcome, client bidding.ParticipantID, truth map[bidding.OrderID]float64) float64 {
	var u float64
	for _, m := range out.Matches {
		if m.Request.Client == client {
			u += truth[m.Request.ID] - m.Payment
		}
	}
	return u
}

// providerUtility computes u_o = π_o − c_o·(sold fraction) against TRUE
// costs: the provider's cost is charged proportionally to the capacity
// fraction actually consumed (Eq. 3's φ·c_o term).
func providerUtility(out *Outcome, provider bidding.ParticipantID, truth map[bidding.OrderID]float64) float64 {
	var u float64
	for _, m := range out.Matches {
		if m.Offer.Provider == provider {
			u += m.Payment - m.Fraction*truth[m.Offer.ID]
		}
	}
	return u
}

// homogeneousMarket builds a single-cluster market: identical machine
// shapes and time windows so that only prices differ — the setting in
// which the mechanism must be *exactly* DSIC (it degenerates to SBBA).
func homogeneousMarket(values []float64, costs []float64) ([]*bidding.Request, []*bidding.Offer) {
	reqs := make([]*bidding.Request, len(values))
	for i, v := range values {
		reqs[i] = mkReq(fmt.Sprintf("r%02d", i), fmt.Sprintf("c%02d", i), 4, 16, v)
	}
	offs := make([]*bidding.Offer, len(costs))
	for j, c := range costs {
		offs[j] = mkOff(fmt.Sprintf("o%02d", j), fmt.Sprintf("p%02d", j), 4, 16, c)
	}
	return reqs, offs
}

func truthMaps(reqs []*bidding.Request, offs []*bidding.Offer) (map[bidding.OrderID]float64, map[bidding.OrderID]float64) {
	tv := make(map[bidding.OrderID]float64)
	for _, r := range reqs {
		tv[r.ID] = r.TrueValue
	}
	tc := make(map[bidding.OrderID]float64)
	for _, o := range offs {
		tc[o.ID] = o.TrueCost
	}
	return tv, tc
}

// TestDSICHomogeneousClients: in a single-cluster market no client can
// gain by misreporting its valuation, for a dense grid of deviations.
func TestDSICHomogeneousClients(t *testing.T) {
	values := []float64{10, 8, 6, 5, 3}
	costs := []float64{1, 2, 3, 4}
	reqs, offs := homogeneousMarket(values, costs)
	tv, _ := truthMaps(reqs, offs)
	cfg := DefaultConfig()
	cfg.Evidence = []byte("dsic-test")

	base := Run(reqs, offs, cfg)
	for i := range reqs {
		truthful := clientUtility(base, reqs[i].Client, tv)
		for _, dev := range []float64{0.1, 0.5, 0.9, 1.1, 1.5, 3, 10} {
			mod := cloneRequests(reqs)
			mod[i].Bid = reqs[i].TrueValue * dev
			out := Run(mod, offs, cfg)
			if u := clientUtility(out, reqs[i].Client, tv); u > truthful+1e-9 {
				t.Fatalf("client %s gains by bidding %v instead of %v: %v > %v",
					reqs[i].Client, mod[i].Bid, reqs[i].TrueValue, u, truthful)
			}
		}
	}
}

// TestDSICHomogeneousProviders: symmetric check for providers.
func TestDSICHomogeneousProviders(t *testing.T) {
	values := []float64{10, 8, 6, 5, 3}
	costs := []float64{1, 2, 3, 4}
	reqs, offs := homogeneousMarket(values, costs)
	_, tc := truthMaps(reqs, offs)
	cfg := DefaultConfig()
	cfg.Evidence = []byte("dsic-test")

	base := Run(reqs, offs, cfg)
	for j := range offs {
		truthful := providerUtility(base, offs[j].Provider, tc)
		for _, dev := range []float64{0.1, 0.5, 0.9, 1.1, 1.5, 3, 10} {
			mod := cloneOffers(offs)
			mod[j].Bid = offs[j].TrueCost * dev
			out := Run(reqs, mod, cfg)
			if u := providerUtility(out, offs[j].Provider, tc); u > truthful+1e-9 {
				t.Fatalf("provider %s gains by asking %v instead of %v: %v > %v",
					offs[j].Provider, mod[j].Bid, offs[j].TrueCost, u, truthful)
			}
		}
	}
}

// TestApproxDSICRandomMarkets scans heterogeneous random markets for
// profitable unilateral deviations and asserts the mechanism stays inside
// a measured ε-DSIC envelope.
//
// On homogeneous (single-good) markets the mechanism is *exactly* DSIC —
// see the two tests above — matching McAfee/SBBA, whose arguments the
// paper's proof sketch relies on. On fully heterogeneous markets with
// divisible capacity a residual manipulation channel exists that the
// paper does not address: a large offer can be PARTIALLY allocated, so
// raising its reported cost can price marginal requests out of the greedy
// pre-pass and lift v̂_z — raising the clearing price — without the
// deviator ever becoming the excluded price setter (SBBA's atomic-seller
// exclusion does not transfer to partially-used divisible offers).
// Measured on this fixed-seed corpus: ~2.5% of deviations profit, worst
// gain ≈ 9.5 (mean ≈ 0.03). The envelope below is ~25% above the
// measurement so that genuine regressions (e.g. removing the keyed
// randomization) fail loudly.
func TestApproxDSICRandomMarkets(t *testing.T) {
	rnd := rand.New(rand.NewSource(2024))
	cfg := DefaultConfig()
	cfg.Evidence = []byte("dsic-rand")
	var total, violations int
	var worst float64
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		reqs, offs := randomMarket(rnd, 12+rnd.Intn(12), 4+rnd.Intn(5))
		tv, tc := truthMaps(reqs, offs)
		base := Run(reqs, offs, cfg)

		for i := range reqs {
			truthful := clientUtility(base, reqs[i].Client, tv)
			for _, dev := range []float64{0.5, 0.8, 1.25, 2} {
				mod := cloneRequests(reqs)
				mod[i].Bid = reqs[i].TrueValue * dev
				out := Run(mod, offs, cfg)
				gain := clientUtility(out, reqs[i].Client, tv) - truthful
				total++
				if gain > 1e-9 {
					violations++
					if gain > worst {
						worst = gain
					}
				}
			}
		}
		for j := range offs {
			truthful := providerUtility(base, offs[j].Provider, tc)
			for _, dev := range []float64{0.5, 0.8, 1.25, 2} {
				mod := cloneOffers(offs)
				mod[j].Bid = offs[j].TrueCost * dev
				out := Run(reqs, mod, cfg)
				gain := providerUtility(out, offs[j].Provider, tc) - truthful
				total++
				if gain > 1e-9 {
					violations++
					if gain > worst {
						worst = gain
					}
				}
			}
		}
	}
	rate := float64(violations) / float64(total)
	t.Logf("deviations=%d violations=%d rate=%.4f worst=%.3f", total, violations, rate, worst)
	if rate > 0.04 {
		t.Fatalf("ε-DSIC envelope broken: violation rate %.4f > 0.04", rate)
	}
	if worst > 12 {
		t.Fatalf("ε-DSIC envelope broken: worst gain %.3f > 12", worst)
	}
}

// TestDSICHomogeneousStrictMode re-runs the exact DSIC check with
// per-cluster (strict) trade reduction: the ablation variant must be just
// as truthful.
func TestDSICHomogeneousStrictMode(t *testing.T) {
	values := []float64{10, 8, 6, 5, 3}
	costs := []float64{1, 2, 3, 4}
	reqs, offs := homogeneousMarket(values, costs)
	tv, tc := truthMaps(reqs, offs)
	cfg := DefaultConfig()
	cfg.Evidence = []byte("dsic-strict")
	cfg.StrictReduction = true

	base := Run(reqs, offs, cfg)
	for i := range reqs {
		truthful := clientUtility(base, reqs[i].Client, tv)
		for _, dev := range []float64{0.5, 0.9, 1.1, 2} {
			mod := cloneRequests(reqs)
			mod[i].Bid = reqs[i].TrueValue * dev
			out := Run(mod, offs, cfg)
			if u := clientUtility(out, reqs[i].Client, tv); u > truthful+1e-9 {
				t.Fatalf("strict mode: client %s gains by deviating ×%v", reqs[i].Client, dev)
			}
		}
	}
	for j := range offs {
		truthful := providerUtility(base, offs[j].Provider, tc)
		for _, dev := range []float64{0.5, 0.9, 1.1, 2} {
			mod := cloneOffers(offs)
			mod[j].Bid = offs[j].TrueCost * dev
			out := Run(reqs, mod, cfg)
			if u := providerUtility(out, offs[j].Provider, tc); u > truthful+1e-9 {
				t.Fatalf("strict mode: provider %s gains by deviating ×%v", offs[j].Provider, dev)
			}
		}
	}
}

// TestIRRandomMarkets: individual rationality must hold on every random
// market — clients never pay above bid; every trading offer's payment
// covers the bid-cost of the capacity fraction it gives up.
func TestIRRandomMarkets(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	cfg := DefaultConfig()
	cfg.Evidence = []byte("ir-rand")
	for trial := 0; trial < 50; trial++ {
		reqs, offs := randomMarket(rnd, 10+rnd.Intn(40), 3+rnd.Intn(10))
		out := Run(reqs, offs, cfg)
		for _, m := range out.Matches {
			if m.Payment > m.Request.Bid+1e-9 {
				t.Fatalf("trial %d: client IR violated: pays %v > bid %v", trial, m.Payment, m.Request.Bid)
			}
			if m.Payment < 0 {
				t.Fatalf("trial %d: negative payment %v", trial, m.Payment)
			}
		}
		if math.Abs(out.TotalPayments()-out.TotalRevenues()) > 1e-9 {
			t.Fatalf("trial %d: budget imbalance", trial)
		}
	}
}

// TestProviderCostCoverage measures how often a provider's per-match
// payment covers the φ-proportional bid cost. The paper proves coverage
// for the virtual-maximum case (ν = 1); for heterogeneous grants this is
// the empirical analogue and must hold for every match.
func TestProviderCostCoverage(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	cfg := DefaultConfig()
	cfg.Evidence = []byte("cover")
	for trial := 0; trial < 30; trial++ {
		reqs, offs := randomMarket(rnd, 10+rnd.Intn(30), 3+rnd.Intn(8))
		out := Run(reqs, offs, cfg)
		for _, m := range out.Matches {
			costShare := m.Fraction * m.Offer.Bid
			if m.Payment < costShare-1e-9 {
				t.Fatalf("trial %d: match %s→%s payment %v below cost share %v (φ=%v)",
					trial, m.Request.ID, m.Offer.ID, m.Payment, costShare, m.Fraction)
			}
		}
	}
}

// TestFeasibilityRandomMarkets re-verifies every structural constraint of
// the optimization program (Eqs. 5–14) on mechanism outcomes.
func TestFeasibilityRandomMarkets(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	cfg := DefaultConfig()
	cfg.Evidence = []byte("feas")
	for trial := 0; trial < 40; trial++ {
		reqs, offs := randomMarket(rnd, 10+rnd.Intn(50), 3+rnd.Intn(12))
		out := Run(reqs, offs, cfg)
		assertFeasible(t, out, offs)
	}
}

func assertFeasible(t *testing.T, out *Outcome, offs []*bidding.Offer) {
	t.Helper()
	seen := make(map[bidding.OrderID]bool)
	used := make(map[bidding.OrderID]resource.Vector)
	for _, m := range out.Matches {
		if seen[m.Request.ID] {
			t.Fatalf("Const 5 violated: request %s matched twice", m.Request.ID)
		}
		seen[m.Request.ID] = true
		if !bidding.TimeCompatible(m.Request, m.Offer) {
			t.Fatalf("Const 10/11 violated for %s→%s", m.Request.ID, m.Offer.ID)
		}
		for k, g := range m.Granted {
			if g > m.Offer.Resources[k]+1e-9 {
				t.Fatalf("Const 8 violated: grant %v of %s exceeds offer capacity %v",
					g, k, m.Offer.Resources[k])
			}
			if g > m.Request.Resources[k]+1e-9 {
				t.Fatalf("over-grant: %v > requested %v of %s", g, m.Request.Resources[k], k)
			}
			if g < m.Request.Flex()*m.Request.Resources[k]-1e-9 {
				t.Fatalf("flexibility floor violated: %v < %v·%v",
					g, m.Request.Flex(), m.Request.Resources[k])
			}
		}
		if m.Fraction < 0 || m.Fraction > 1+1e-9 {
			t.Fatalf("φ out of range: %v", m.Fraction)
		}
		prev := used[m.Offer.ID]
		if prev == nil {
			prev = make(resource.Vector)
		}
		used[m.Offer.ID] = prev.Add(m.Granted.Scale(float64(m.Request.Duration)))
	}
	for _, o := range offs {
		cap := o.Resources.Scale(float64(o.Window()))
		for k, u := range used[o.ID] {
			if u > cap[k]+1e-6 {
				t.Fatalf("Const 7 violated: offer %s kind %s used %v of %v", o.ID, k, u, cap[k])
			}
		}
	}
}

// TestNoIncentiveToDelaySubmission: ties break toward earlier submission,
// so delaying can only (weakly) hurt.
func TestNoIncentiveToDelaySubmission(t *testing.T) {
	values := []float64{10, 8, 8, 5, 3} // r1 and r2 tie
	costs := []float64{1, 2, 3, 4}
	reqs, offs := homogeneousMarket(values, costs)
	reqs[1].Submitted, reqs[2].Submitted = 5, 10
	tv, _ := truthMaps(reqs, offs)
	cfg := DefaultConfig()
	cfg.Evidence = []byte("delay")
	base := Run(reqs, offs, cfg)
	early := clientUtility(base, reqs[1].Client, tv)

	// Delay r2 past r3: utility must not increase.
	mod := cloneRequests(reqs)
	mod[1].Submitted = 99
	out := Run(mod, offs, cfg)
	if u := clientUtility(out, reqs[1].Client, tv); u > early+1e-9 {
		t.Fatalf("delaying submission helped: %v > %v", u, early)
	}
}

func cloneRequests(reqs []*bidding.Request) []*bidding.Request {
	out := make([]*bidding.Request, len(reqs))
	for i, r := range reqs {
		c := *r
		c.Resources = r.Resources.Clone()
		out[i] = &c
	}
	return out
}

func cloneOffers(offs []*bidding.Offer) []*bidding.Offer {
	out := make([]*bidding.Offer, len(offs))
	for i, o := range offs {
		c := *o
		c.Resources = o.Resources.Clone()
		out[i] = &c
	}
	return out
}

// TestDSICHomogeneousParallel re-runs the exact DSIC grid through the
// PARALLEL execution path (Workers = 4). The equivalence harness proves
// parallel outcomes are byte-identical to sequential ones, but this test
// asserts the economic property directly on the parallel path: if the
// component partitioning ever broke in a way that slipped past the
// marshal comparison, truthfulness would be the casualty — so it gets
// its own tripwire.
func TestDSICHomogeneousParallel(t *testing.T) {
	values := []float64{10, 8, 6, 5, 3}
	costs := []float64{1, 2, 3, 4}
	reqs, offs := homogeneousMarket(values, costs)
	tv, tc := truthMaps(reqs, offs)
	cfg := DefaultConfig()
	cfg.Evidence = []byte("dsic-parallel")
	cfg.Workers = 4

	base := Run(reqs, offs, cfg)
	for i := range reqs {
		truthful := clientUtility(base, reqs[i].Client, tv)
		for _, dev := range []float64{0.1, 0.5, 0.9, 1.1, 1.5, 3, 10} {
			mod := cloneRequests(reqs)
			mod[i].Bid = reqs[i].TrueValue * dev
			out := Run(mod, offs, cfg)
			if u := clientUtility(out, reqs[i].Client, tv); u > truthful+1e-9 {
				t.Fatalf("parallel mode: client %s gains by bidding %v instead of %v: %v > %v",
					reqs[i].Client, mod[i].Bid, reqs[i].TrueValue, u, truthful)
			}
		}
	}
	for j := range offs {
		truthful := providerUtility(base, offs[j].Provider, tc)
		for _, dev := range []float64{0.1, 0.5, 0.9, 1.1, 1.5, 3, 10} {
			mod := cloneOffers(offs)
			mod[j].Bid = offs[j].TrueCost * dev
			out := Run(reqs, mod, cfg)
			if u := providerUtility(out, offs[j].Provider, tc); u > truthful+1e-9 {
				t.Fatalf("parallel mode: provider %s gains by asking %v instead of %v: %v > %v",
					offs[j].Provider, mod[j].Bid, offs[j].TrueCost, u, truthful)
			}
		}
	}
}

// TestInvariantsParallelRandomMarkets asserts the mechanism's hard
// invariants directly on parallel-path outcomes across random markets:
// individual rationality on both sides, the per-match payment identity
// (Payment = ν·p·duration on BOTH the client and provider ledger — the
// strong budget balance of each mini-auction: the auctioneer keeps
// nothing), and structural feasibility.
func TestInvariantsParallelRandomMarkets(t *testing.T) {
	rnd := rand.New(rand.NewSource(93))
	cfg := DefaultConfig()
	cfg.Evidence = []byte("par-invariants")
	cfg.Workers = 4
	for trial := 0; trial < 40; trial++ {
		reqs, offs := randomMarket(rnd, 10+rnd.Intn(40), 3+rnd.Intn(10))
		out := Run(reqs, offs, cfg)
		revCheck := make(map[bidding.OrderID]float64)
		for _, m := range out.Matches {
			if m.Payment > m.Request.Bid+1e-9 {
				t.Fatalf("trial %d: client IR violated in parallel mode: pays %v > bid %v",
					trial, m.Payment, m.Request.Bid)
			}
			if m.Payment < m.Fraction*m.Offer.Bid-1e-9 {
				t.Fatalf("trial %d: provider IR violated in parallel mode: %v < cost share %v",
					trial, m.Payment, m.Fraction*m.Offer.Bid)
			}
			if want := m.Nu * m.UnitPrice * float64(m.Request.Duration); m.Payment != want {
				t.Fatalf("trial %d: payment identity broken: %v != ν·p·d = %v", trial, m.Payment, want)
			}
			if out.Payments[m.Request.ID] != m.Payment {
				t.Fatalf("trial %d: Payments ledger disagrees with match", trial)
			}
			revCheck[m.Offer.ID] += m.Payment
		}
		for id, want := range revCheck {
			if out.Revenues[id] != want {
				t.Fatalf("trial %d: Revenues ledger drift for %s: %v != %v (mini-auction budget imbalance)",
					trial, id, out.Revenues[id], want)
			}
		}
		if math.Abs(out.TotalPayments()-out.TotalRevenues()) > 1e-9 {
			t.Fatalf("trial %d: block budget imbalance in parallel mode", trial)
		}
		assertFeasible(t, out, offs)
	}
}

// TestOutcomeConservation is the outcome-level conservation invariant,
// on both executors: matched + excluded + carried == submitted, with the
// three sets pairwise disjoint — however mini-auctions are scheduled,
// no order is traded twice, dropped silently, or both matched and
// excluded.
func TestOutcomeConservation(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		m := workload.Generate(workload.Config{Seed: 300 + seed, Requests: 40 + int(seed)*7})
		for _, workers := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.Evidence = []byte{byte(seed), byte(workers)}
			cfg.Workers = workers
			out := Run(m.Requests, m.Offers, cfg)

			submitted := make(map[bidding.OrderID]bool)
			for _, r := range m.Requests {
				submitted[r.ID] = true
			}
			for _, o := range m.Offers {
				submitted[o.ID] = true
			}

			matched := make(map[bidding.OrderID]bool)
			for _, mt := range out.Matches {
				if matched[mt.Request.ID] {
					t.Fatalf("seed %d workers=%d: request %s matched twice", seed, workers, mt.Request.ID)
				}
				matched[mt.Request.ID] = true
				matched[mt.Offer.ID] = true // offers may host several requests
			}
			excluded := make(map[bidding.OrderID]bool)
			for _, set := range [][]bidding.OrderID{
				out.ReducedRequests, out.ReducedOffers, out.LotteryDropped,
				out.RejectedRequests, out.RejectedOffers,
			} {
				for _, id := range set {
					if matched[id] {
						t.Fatalf("seed %d workers=%d: order %s both matched and excluded", seed, workers, id)
					}
					if excluded[id] {
						t.Fatalf("seed %d workers=%d: order %s excluded twice", seed, workers, id)
					}
					excluded[id] = true
				}
			}
			carried := 0
			for id := range submitted {
				if !matched[id] && !excluded[id] {
					carried++ // unmatched: a resubmitting client would carry it forward
				}
			}
			for id := range matched {
				if !submitted[id] {
					t.Fatalf("seed %d workers=%d: matched order %s was never submitted", seed, workers, id)
				}
			}
			for id := range excluded {
				if !submitted[id] {
					t.Fatalf("seed %d workers=%d: excluded order %s was never submitted", seed, workers, id)
				}
			}
			if got := len(matched) + len(excluded) + carried; got != len(submitted) {
				t.Fatalf("seed %d workers=%d: matched(%d) + excluded(%d) + carried(%d) = %d != submitted %d",
					seed, workers, len(matched), len(excluded), carried, got, len(submitted))
			}
		}
	}
}

// TestSBBAPriceRuleParallel independently replays the pricing stage —
// clustering, pre-passes, interval-tree auction formation, and Eq. 20's
// p = min(v̂_z, ĉ_{z'+1}) — sequentially, then checks that every match
// produced by the PARALLEL path clears at a replayed auction price of
// an auction whose member clusters contain the matched request. This
// pins the price rule itself, not just sequential/parallel agreement:
// a bug that shifted both paths identically would pass the equivalence
// harness but fail here.
func TestSBBAPriceRuleParallel(t *testing.T) {
	rnd := rand.New(rand.NewSource(57))
	for trial := 0; trial < 20; trial++ {
		reqs, offs := randomMarket(rnd, 12+rnd.Intn(30), 4+rnd.Intn(8))
		cfg := DefaultConfig()
		cfg.Evidence = []byte(fmt.Sprintf("sbba-%d", trial))
		cfg.Workers = 4

		// Sequential replay of the pricing pipeline (mirrors Run up to
		// the point prices are fixed; prices do not depend on the
		// allocation loop).
		scratch := &Outcome{Payments: map[bidding.OrderID]float64{}, Revenues: map[bidding.OrderID]float64{}}
		sreqs, soffs := screen(reqs, offs, scratch)
		scale := match.BlockScale(sreqs, soffs)
		clusters := cluster.BuildIndex(match.NewIndex(sreqs, soffs, scale), cfg.Match, 1)
		pairOK := pairGate(cfg)
		all := make([]clusterStats, len(clusters))
		for i := range clusters {
			all[i] = prePass(ComputeEconomics(clusters[i], cfg.Critical), pairOK, func() Capacity { return newCapacity(cfg) })
		}
		var intervals []miniauction.Interval
		for i := range all {
			if all[i].active {
				intervals = append(intervals, miniauction.Interval{
					ID: i, Lo: all[i].cHatZ, Hi: all[i].vHatZ, Weight: all[i].welfare,
				})
			}
		}
		auctions := miniauction.Form(intervals)

		// Valid clearing prices per request: each auction's Eq. 20 price,
		// attributed to every request of its member clusters.
		valid := make(map[bidding.OrderID]map[float64]bool)
		for _, auc := range auctions {
			p, _, _, ok := auctionPrice(auc, all)
			if !ok {
				continue
			}
			for _, ci := range auc.Clusters {
				for _, er := range all[ci].ec.Requests {
					if valid[er.Request.ID] == nil {
						valid[er.Request.ID] = make(map[float64]bool)
					}
					valid[er.Request.ID][p] = true
				}
			}
		}

		out := Run(reqs, offs, cfg)
		for _, m := range out.Matches {
			if !valid[m.Request.ID][m.UnitPrice] {
				t.Fatalf("trial %d: match %s→%s clears at %v, not an Eq. 20 price of any auction containing it (valid: %v)",
					trial, m.Request.ID, m.Offer.ID, m.UnitPrice, valid[m.Request.ID])
			}
		}
	}
}

// TestDSICHomogeneousExactScheduling completes the config matrix: the
// exact-scheduling capacity model must be just as truthful on the
// single-good setting.
func TestDSICHomogeneousExactScheduling(t *testing.T) {
	values := []float64{10, 8, 6, 5, 3}
	costs := []float64{1, 2, 3, 4}
	reqs, offs := homogeneousMarket(values, costs)
	tv, tc := truthMaps(reqs, offs)
	cfg := DefaultConfig()
	cfg.Evidence = []byte("dsic-exact")
	cfg.ExactScheduling = true

	base := Run(reqs, offs, cfg)
	for i := range reqs {
		truthful := clientUtility(base, reqs[i].Client, tv)
		for _, dev := range []float64{0.5, 0.9, 1.1, 2} {
			mod := cloneRequests(reqs)
			mod[i].Bid = reqs[i].TrueValue * dev
			out := Run(mod, offs, cfg)
			if u := clientUtility(out, reqs[i].Client, tv); u > truthful+1e-9 {
				t.Fatalf("exact mode: client %s gains by deviating ×%v", reqs[i].Client, dev)
			}
		}
	}
	for j := range offs {
		truthful := providerUtility(base, offs[j].Provider, tc)
		for _, dev := range []float64{0.5, 0.9, 1.1, 2} {
			mod := cloneOffers(offs)
			mod[j].Bid = offs[j].TrueCost * dev
			out := Run(reqs, mod, cfg)
			if u := providerUtility(out, offs[j].Provider, tc); u > truthful+1e-9 {
				t.Fatalf("exact mode: provider %s gains by deviating ×%v", offs[j].Provider, dev)
			}
		}
	}
}
