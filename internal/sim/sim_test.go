package sim

import (
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

func TestResubmissionCarriesUnmatchedRequests(t *testing.T) {
	res, err := Run(Config{
		Mode:         Fast,
		Rounds:       4,
		Workload:     workload.Config{Seed: 9, Requests: 60, Providers: 4}, // tight supply
		Resubmit:     true,
		MaxResubmits: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds[0].CarriedIn != 0 {
		t.Fatal("round 0 cannot carry requests in")
	}
	if res.Rounds[0].CarriedOut == 0 {
		t.Fatal("tight market should leave unmatched requests to carry")
	}
	carriedInTotal := 0
	for _, m := range res.Rounds[1:] {
		carriedInTotal += m.CarriedIn
	}
	if carriedInTotal == 0 {
		t.Fatal("no requests were ever resubmitted")
	}
	// Conservation per round: carried in equals the previous round's
	// carried out.
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].CarriedIn != res.Rounds[i-1].CarriedOut {
			t.Fatalf("round %d: carried in %d != previous carried out %d",
				i, res.Rounds[i].CarriedIn, res.Rounds[i-1].CarriedOut)
		}
	}
	// With MaxResubmits=2 and persistent scarcity, some requests expire.
	expired := 0
	for _, m := range res.Rounds {
		expired += m.Expired
	}
	if expired == 0 {
		t.Fatal("no requests expired despite persistent scarcity")
	}
}

func TestResubmissionOffByDefault(t *testing.T) {
	res, err := Run(Config{
		Mode:     Fast,
		Rounds:   2,
		Workload: workload.Config{Seed: 9, Requests: 40, Providers: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Rounds {
		if m.CarriedIn != 0 || m.CarriedOut != 0 || m.Expired != 0 {
			t.Fatalf("resubmission bookkeeping active without Resubmit: %+v", m)
		}
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

// TestLedgerDenyResubmissionReputationE2E drives the full contract
// failure loop through ledger mode: every allocation is denied at the
// contract stage, so the denied requests rejoin the unmatched pool, are
// resubmitted in later rounds, burn through their resubmission budget,
// and expire — while the denying clients accumulate reputation penalties
// visible in the final snapshot.
func TestLedgerDenyResubmissionReputationE2E(t *testing.T) {
	res, err := Run(Config{
		Mode:         Ledger,
		Rounds:       4,
		Workload:     workload.Config{Seed: 5, Requests: 12},
		Miners:       2,
		Difficulty:   6,
		DenyProb:     1.0, // every agreement is denied
		Resubmit:     true,
		MaxResubmits: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 {
		t.Fatalf("rounds = %d, want 4", len(res.Rounds))
	}
	r0 := res.Rounds[0]
	if r0.Denied == 0 || r0.Agreed != 0 {
		t.Fatalf("round 0: denied = %d, agreed = %d; want all-deny", r0.Denied, r0.Agreed)
	}
	// Denied allocations never execute: their requests must be carried.
	if r0.CarriedOut < r0.Denied {
		t.Fatalf("round 0 carried out %d requests, but denied %d", r0.CarriedOut, r0.Denied)
	}
	if res.Rounds[1].CarriedIn != r0.CarriedOut {
		t.Fatalf("round 1 carried in %d, round 0 carried out %d",
			res.Rounds[1].CarriedIn, r0.CarriedOut)
	}
	// With every round denying, resubmission budgets run dry.
	expired := 0
	for _, m := range res.Rounds {
		expired += m.Expired
	}
	if expired == 0 {
		t.Fatal("no request expired despite denials in every round")
	}
	// The chain still grows one verified block per round.
	for i, m := range res.Rounds {
		if m.BlockHeight != int64(i) {
			t.Fatalf("round %d block height = %d", i, m.BlockHeight)
		}
	}
	// Denying clients pay in reputation.
	if len(res.Reputation) == 0 {
		t.Fatal("ledger run returned no reputation snapshot")
	}
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
		{"resubmit", func(c *Config) { c.Resubmit = true }, 0},
		{"deny", func(c *Config) { c.DenyProb = 0.5 }, 0},
		{"metros", func(c *Config) { c.Metros, c.Workload.GeoRadius = 2, 0.6 }, 0},
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

func TestFastIncrementalBookSimulation(t *testing.T) {
	cfg := Config{
		Mode:     Fast,
		Rounds:   3,
		Workload: workload.Config{Seed: 7, Requests: 60},
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
	// Later rounds clear the union of carried and fresh orders, so the
	// cleared market must be at least the fresh market size.
	if res.Rounds[1].Requests < 60 {
		t.Fatalf("round 1 cleared %d requests, want >= 60 (carried + fresh)", res.Rounds[1].Requests)
	}
}

func TestIncrementalRejectsResubmit(t *testing.T) {
	cfg := Config{
		Mode:     Fast,
		Rounds:   1,
		Resubmit: true,
		Workload: workload.Config{Seed: 1, Requests: 10},
	}
	cfg.Auction.Incremental = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("Resubmit with an incremental book must be rejected")
	}
}

// TestResubmitBudgetFollowsTheInjectedID: under MaxResubmits 1 a request
// left unmatched is resubmitted once, under a new ID, and when that
// attempt fails too it expires, counted once. Requests here match
// nothing (no offer lies within their radius), so every round carries
// exactly its fresh requests and expires exactly what it was handed back.
func TestResubmitBudgetFollowsTheInjectedID(t *testing.T) {
	const fresh = 30
	res, err := Run(Config{
		Mode: Fast, Rounds: 4, Workload: workload.Config{Seed: 11, Requests: fresh, GeoRadius: 1e-9},
		Resubmit: true, MaxResubmits: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	expired := 0
	for _, m := range res.Rounds {
		if m.Matches != 0 {
			t.Fatalf("round %d matched %d requests; the test needs a market that clears nothing", m.Round, m.Matches)
		}
		if m.Requests != fresh+m.CarriedIn || m.CarriedOut != fresh || m.Expired != m.CarriedIn {
			t.Fatalf("round %d: %d requests (%d resubmitted), %d carried out, %d expired; want %d fresh carried and every resubmission expired",
				m.Round, m.Requests, m.CarriedIn, m.CarriedOut, m.Expired, fresh)
		}
		expired += m.Expired
	}
	if want := fresh * (len(res.Rounds) - 1); expired != want {
		t.Fatalf("%d expiries, want %d: each never-matched request once, but the last round's", expired, want)
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
