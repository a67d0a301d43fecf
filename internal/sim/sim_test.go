package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/miner"
	"decloud/internal/obs"
	"decloud/internal/workload"
)

func TestFastSimulation(t *testing.T) {
	res, err := Run(Config{
		Mode:     Fast,
		Rounds:   3,
		Workload: workload.Config{Seed: 7, Requests: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	for _, m := range res.Rounds {
		if m.Requests != 60 {
			t.Fatalf("requests = %d", m.Requests)
		}
		if m.Matches == 0 {
			t.Fatal("round produced no trades")
		}
		if m.Welfare <= 0 || m.BenchWelfare <= 0 {
			t.Fatalf("welfare: %v / %v", m.Welfare, m.BenchWelfare)
		}
		if m.WelfareRatio <= 0 || m.WelfareRatio > 1.2 {
			t.Fatalf("welfare ratio out of band: %v", m.WelfareRatio)
		}
		if m.Satisfaction <= 0 || m.Satisfaction > 1 {
			t.Fatalf("satisfaction = %v", m.Satisfaction)
		}
	}
	if res.TotalWelfare() <= 0 {
		t.Fatal("total welfare should be positive")
	}
	if r := res.MeanWelfareRatio(); r <= 0 || r > 1.2 {
		t.Fatalf("mean ratio = %v", r)
	}
}

func TestFastSimulationDeterministic(t *testing.T) {
	cfg := Config{Mode: Fast, Rounds: 2, Workload: workload.Config{Seed: 11, Requests: 40}}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rounds {
		if a.Rounds[i].Welfare != b.Rounds[i].Welfare || a.Rounds[i].Matches != b.Rounds[i].Matches {
			t.Fatalf("round %d differs", i)
		}
	}
}

func TestLedgerSimulation(t *testing.T) {
	res, err := Run(Config{
		Mode:       Ledger,
		Rounds:     1,
		Workload:   workload.Config{Seed: 13, Requests: 25},
		Miners:     2,
		Difficulty: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Rounds[0]
	if m.Winner == "" {
		t.Fatal("no winning miner recorded")
	}
	if m.Matches == 0 {
		t.Fatal("ledger round produced no trades")
	}
	if m.Agreed != m.Matches {
		t.Fatalf("agreed = %d, matches = %d", m.Agreed, m.Matches)
	}
	if m.Denied != 0 {
		t.Fatalf("unexpected denials: %d", m.Denied)
	}
}

func TestLedgerSimulationWithDenials(t *testing.T) {
	res, err := Run(Config{
		Mode:       Ledger,
		Rounds:     1,
		Workload:   workload.Config{Seed: 17, Requests: 30},
		Miners:     2,
		Difficulty: 8,
		DenyProb:   1.0, // everyone denies
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Rounds[0]
	if m.Denied != m.Matches || m.Agreed != 0 {
		t.Fatalf("denied = %d, agreed = %d, matches = %d", m.Denied, m.Agreed, m.Matches)
	}
	// Denying clients pay in reputation.
	penalized := 0
	for _, s := range res.Reputation {
		if s.Score < 1.0 {
			penalized++
		}
	}
	if penalized == 0 {
		t.Fatal("no participant lost reputation despite universal denial")
	}
}

func TestLedgerMatchesFastEconomics(t *testing.T) {
	// The protocol must not change the economics: with identical orders,
	// ledger-mode welfare equals fast-mode welfare up to the evidence
	// seed (different lotteries may pick different winners, but both
	// modes clear at mechanism prices). We check the structural
	// invariants rather than exact equality.
	wcfg := workload.Config{Seed: 23, Requests: 30}
	fast, err := Run(Config{Mode: Fast, Rounds: 1, Workload: wcfg})
	if err != nil {
		t.Fatal(err)
	}
	led, err := Run(Config{Mode: Ledger, Rounds: 1, Workload: wcfg, Miners: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, l := fast.Rounds[0], led.Rounds[0]
	if l.Matches == 0 || f.Matches == 0 {
		t.Fatal("both modes should trade")
	}
	// Same benchmark on both sides (deterministic, evidence-free).
	if f.BenchWelfare != l.BenchWelfare {
		t.Fatalf("benchmark differs: %v vs %v", f.BenchWelfare, l.BenchWelfare)
	}
	// Welfare within a loose band of each other (lottery differences).
	lo, hi := f.Welfare*0.5, f.Welfare*1.5
	if l.Welfare < lo || l.Welfare > hi {
		t.Fatalf("ledger welfare %v far from fast welfare %v", l.Welfare, f.Welfare)
	}
}

func TestUnknownMode(t *testing.T) {
	if _, err := Run(Config{Mode: Mode(99), Rounds: 1, Workload: workload.Config{Seed: 1, Requests: 5}}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestLedgerChainGrowsAcrossRounds(t *testing.T) {
	// The persistent network accumulates one block per round; identities
	// and reputation survive between rounds.
	res, err := Run(Config{
		Mode:       Ledger,
		Rounds:     3,
		Workload:   workload.Config{Seed: 41, Requests: 15},
		Miners:     2,
		Difficulty: 8,
		DenyProb:   0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range res.Rounds {
		if m.BlockHeight != int64(i) {
			t.Fatalf("round %d produced block height %d, want %d", i, m.BlockHeight, i)
		}
	}
	denies := 0
	for _, m := range res.Rounds {
		denies += m.Denied
	}
	if denies == 0 {
		t.Fatal("DenyProb=0.5 over 3 rounds should produce denials")
	}
}

// TestFastModeHasNoReputationSnapshot pins the mode split: reputation is
// ledger state, so Fast mode must not fabricate one.
func TestFastModeHasNoReputationSnapshot(t *testing.T) {
	res, err := Run(Config{Mode: Fast, Rounds: 1, Workload: workload.Config{Seed: 3, Requests: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reputation != nil {
		t.Fatalf("fast mode produced a reputation snapshot: %v", res.Reputation)
	}
}

// TestZeroMatchConfigKeepsMechanismFields: defaulting fills a zero
// Auction.Match (and Workers) and nothing else — a mechanism switch set
// on an otherwise zero Auction must reach the mechanism.
func TestZeroMatchConfigKeepsMechanismFields(t *testing.T) {
	base := Config{Mode: Fast, Rounds: 1, Workload: workload.Config{Seed: 4, Requests: 60}}
	loose, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	full := base
	full.Auction = auction.DefaultConfig()
	full.Auction.StrictReduction = true
	want, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	if want.Rounds[0].Matches >= loose.Rounds[0].Matches {
		t.Fatalf("seed no longer separates strict (%d matches) from default reduction (%d)", want.Rounds[0].Matches, loose.Rounds[0].Matches)
	}
	zero := base
	zero.Auction = auction.Config{StrictReduction: true}
	got, err := Run(zero)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds[0].Matches != want.Rounds[0].Matches || got.Rounds[0].Welfare != want.Rounds[0].Welfare {
		t.Fatalf("zero-Match config dropped StrictReduction: %d matches / welfare %v, want the strict outcome %d / %v",
			got.Rounds[0].Matches, got.Rounds[0].Welfare, want.Rounds[0].Matches, want.Rounds[0].Welfare)
	}
}

func TestPipelinedLedgerMatchesSequential(t *testing.T) {
	// The epoch pipeline only overlaps wall-clock phases. The in-process
	// PoW race is scheduling-dependent (a different miner may win the
	// same round across runs, shifting the evidence lottery), so we
	// compare the winner-invariant surface: round structure, block
	// linkage, benchmark welfare, and welfare bands — exact byte
	// equivalence is proven at the miner layer under proof-of-stake
	// (TestPipelinedEquivalenceSoak).
	base := Config{
		Mode:       Ledger,
		Rounds:     3,
		Workload:   workload.Config{Seed: 37, Requests: 20},
		Miners:     2,
		Difficulty: 8,
	}
	seq, err := run(base, false)
	if err != nil {
		t.Fatal(err)
	}
	pip, err := Run(base) // feedback-free, so pipelined
	if err != nil {
		t.Fatal(err)
	}
	if len(pip.Rounds) != len(seq.Rounds) {
		t.Fatalf("pipelined ran %d rounds, sequential %d", len(pip.Rounds), len(seq.Rounds))
	}
	for i := range seq.Rounds {
		s, p := seq.Rounds[i], pip.Rounds[i]
		if p.Matches == 0 || s.Matches == 0 {
			t.Fatalf("round %d: both paths should trade (%d vs %d)", i, p.Matches, s.Matches)
		}
		// The greedy benchmark is deterministic and evidence-free.
		if s.BenchWelfare != p.BenchWelfare {
			t.Fatalf("round %d benchmark diverges: %v vs %v", i, p.BenchWelfare, s.BenchWelfare)
		}
		if s.BlockHeight != p.BlockHeight {
			t.Fatalf("round %d height diverges: %d vs %d", i, p.BlockHeight, s.BlockHeight)
		}
		if p.Winner == "" {
			t.Fatalf("round %d recorded no winner", i)
		}
		if lo, hi := s.Welfare*0.5, s.Welfare*1.5; p.Welfare < lo || p.Welfare > hi {
			t.Fatalf("round %d: pipelined welfare %v far from sequential %v", i, p.Welfare, s.Welfare)
		}
		if p.Agreed != p.Matches {
			t.Fatalf("round %d: agreed %d != matches %d (no denials configured)", i, p.Agreed, p.Matches)
		}
	}
}

// TestLedgerPipelinesUnlessARoundReadsTheLastCommit: the simulator decides
// itself how a ledger run clears. A feedback-free run goes through the epoch
// pipeline — one produce stage per round — and every shape whose next
// market depends on the last commit runs, round by round, with none.
func TestLedgerPipelinesUnlessARoundReadsTheLastCommit(t *testing.T) {
	for _, c := range []struct {
		name     string
		mutate   func(*Config)
		produces int64
	}{
		{"feedback-free", func(*Config) {}, 3},
		{"deny", func(c *Config) { c.DenyProb = 0.5 }, 0},
		{"metros", func(c *Config) { c.Metros, c.Workload.GeoRadius = 2, 0.6 }, 0},
		{"incremental", func(c *Config) { c.Auction.Incremental = true }, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Mode: Ledger, Rounds: 3, Workload: workload.Config{Seed: 43, Requests: 20}, Miners: 2, Difficulty: 6}
			c.mutate(&cfg)
			reg := obs.NewRegistry()
			cfg.Obs = reg
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rounds) != cfg.Rounds {
				t.Fatalf("ran %d rounds, want %d", len(res.Rounds), cfg.Rounds)
			}
			if got := reg.Histogram("decloud_miner_pipeline_produce_seconds", "", nil).Snapshot().Count; got != c.produces {
				t.Fatalf("pipeline produce stages = %d, want %d", got, c.produces)
			}
		})
	}
}

// TestFastIncrementalBookSimulation: the book carries what a round left
// unmatched into the next one. Supply is tight, so round 0 leaves
// requests unmatched, and round 1 clears over more requests than arrived
// in it: Matches / Satisfaction is the size of the market the book
// cleared, carried and fresh together.
func TestFastIncrementalBookSimulation(t *testing.T) {
	cfg := Config{
		Mode:     Fast,
		Rounds:   3,
		Workload: workload.Config{Seed: 7, Requests: 60, Providers: 4},
	}
	cfg.Auction.Incremental = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	for i, m := range res.Rounds {
		if m.Matches == 0 {
			t.Fatalf("round %d produced no trades", i)
		}
		if m.Welfare <= 0 {
			t.Fatalf("round %d welfare = %v", i, m.Welfare)
		}
	}
	if r0 := res.Rounds[0]; r0.Matches >= r0.Requests {
		t.Fatalf("round 0 matched %d of %d requests; the test needs a market that leaves some unmatched", r0.Matches, r0.Requests)
	}
	r1 := res.Rounds[1]
	if cleared := int(math.Round(float64(r1.Matches) / r1.Satisfaction)); cleared <= r1.Requests {
		t.Fatalf("round 1 cleared %d requests, %d arrived: nothing was carried", cleared, r1.Requests)
	}
}

// TestLedgerIncrementalAdmitsEveryArrival: generated rounds reuse no
// order ID, so the single chain's order book admits every arrival of
// every round, pipelined or round by round — none is dropped as a copy of
// an order still live under the same ID.
func TestLedgerIncrementalAdmitsEveryArrival(t *testing.T) {
	cfg := Config{Mode: Ledger, Rounds: 4, Workload: workload.Config{Seed: 3, Requests: 100, Providers: 10}, Miners: 2, Difficulty: 6}
	cfg.Auction.Incremental = true
	cfg = cfg.withDefaults()
	for _, pipelined := range []bool{false, true} {
		net := miner.NewNetwork(cfg.Miners, cfg.Difficulty, cfg.Auction)
		roster := make(map[bidding.ParticipantID]*miner.Participant)
		next, clr := marketSource(cfg), ledgerClearer(net, roster)
		if pipelined {
			var err error
			if next, clr, err = pipelinedRounds(cfg, net, roster, next); err != nil {
				t.Fatal(err)
			}
		}
		var reqs, offs int
		for round := 0; round < cfg.Rounds; round++ {
			market := next(round)
			if _, err := clr(round, market); err != nil {
				t.Fatalf("pipelined=%v round %d: %v", pipelined, round, err)
			}
			reqs, offs = reqs+len(market.Requests), offs+len(market.Offers)
		}
		if st := net.Book().Stats(); st.InsertedRequests != reqs || st.InsertedOffers != offs {
			t.Fatalf("pipelined=%v: the book admitted %d of %d requests and %d of %d offers",
				pipelined, st.InsertedRequests, reqs, st.InsertedOffers, offs)
		}
	}
}

// TestLedgerFoldsOverTheCarriedMarket: a ledger round that clears over
// order books folds over what the books carried into it as well as the
// round's arrivals, on one chain and across two metros. Every order of
// that market and every matched order, carried or fresh, holds the
// generator's private value or cost, and Satisfaction divides the
// matches by the requests live before the round plus the arrivals.
func TestLedgerFoldsOverTheCarriedMarket(t *testing.T) {
	for _, metros := range []int{1, 2} {
		t.Run(fmt.Sprintf("metros=%d", metros), func(t *testing.T) {
			cfg := Config{Mode: Ledger, Rounds: 4, Metros: metros, Miners: 2, Difficulty: 6,
				Workload: workload.Config{Seed: 7, Requests: 60, Providers: 4}}
			cfg.Auction.Incremental = true
			cfg = cfg.withDefaults()
			roster := make(map[bidding.ParticipantID]*miner.Participant)
			var clr clearer
			var live func() int
			if metros == 1 {
				net := miner.NewNetwork(cfg.Miners, cfg.Difficulty, cfg.Auction)
				clr, live = ledgerClearer(net, roster), func() int { return len(net.Book().LiveRequests()) }
			} else {
				cfg.Workload.GeoRadius = 0.6
				fed, nets, err := newFederation(cfg, roster)
				if err != nil {
					t.Fatal(err)
				}
				clr = federationClearer(cfg, fed, nets)
				live = func() int { // books and spill inboxes: Submitted − Rejected − Matched − Expired
					st := fed.Stats()
					return st.SubmittedRequests - st.RejectedRequests - st.MatchedLocal - st.MatchedSpill - st.ExpiredRequests
				}
			}
			truth, next, carried := map[bidding.OrderID]float64{}, marketSource(cfg), 0
			for round := 0; round < cfg.Rounds; round++ {
				market, before := next(round), live()
				for _, r := range market.Requests {
					truth[r.ID] = r.TrueValue
				}
				for _, o := range market.Offers {
					truth[o.ID] = o.TrueCost
				}
				c, err := clr(round, market)
				if err != nil {
					t.Fatal(err)
				}
				if len(c.outcomes) != metros {
					t.Fatalf("round %d: %d of %d metros cut a block; the test needs every one", round, len(c.outcomes), metros)
				}
				m := fold(c, cfg)
				if want := float64(m.Matches) / float64(before+len(market.Requests)); m.Satisfaction != want {
					t.Fatalf("round %d: satisfaction %v, want %d matches / (%d live + %d fresh) = %v",
						round, m.Satisfaction, m.Matches, before, len(market.Requests), want)
				}
				for _, r := range c.reqs { // the greedy benchmark's market
					if v, ok := truth[r.ID]; !ok || r.TrueValue != v {
						t.Fatalf("round %d: request %s in the folded market holds value %v, the generator's is %v", round, r.ID, r.TrueValue, v)
					}
				}
				for _, o := range c.offs {
					if k, ok := truth[o.ID]; !ok || o.TrueCost != k {
						t.Fatalf("round %d: offer %s in the folded market holds cost %v, the generator's is %v", round, o.ID, o.TrueCost, k)
					}
				}
				for _, out := range c.outcomes {
					for _, x := range out.Matches {
						v, okV := truth[x.Request.ID]
						k, okC := truth[x.Offer.ID]
						if !okV || !okC || x.Request.TrueValue != v || x.Offer.TrueCost != k {
							t.Fatalf("round %d: match %s→%s holds value %v and cost %v, the generator's are %v and %v",
								round, x.Request.ID, x.Offer.ID, x.Request.TrueValue, x.Offer.TrueCost, v, k)
						}
						if !strings.HasSuffix(string(x.Request.ID), fmt.Sprintf("@r%d", round)) {
							carried++
						}
					}
				}
			}
			if carried == 0 {
				t.Fatal("no carried request matched; the test needs a market that carries")
			}
		})
	}
}
