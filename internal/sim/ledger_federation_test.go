package sim

import (
	"fmt"
	"testing"

	"decloud/internal/bidding"
	"decloud/internal/chaos"
	"decloud/internal/contract"
	"decloud/internal/ledger"
	"decloud/internal/metro"
	"decloud/internal/miner"
	"decloud/internal/reputation"
	"decloud/internal/resource"
	"decloud/internal/workload"
)

// ledgerFed builds a proof-of-stake ledger federation for tests: the
// same metro.Federation fast mode runs, over one two-miner network per
// metro. The roster is returned so a test can plant an identity in it.
func ledgerFed(t *testing.T, cfg Config) (*metro.Federation, []*ledgerExchange, map[bidding.ParticipantID]*miner.Participant) {
	t.Helper()
	cfg.Mode, cfg.Miners = Ledger, 2
	roster := make(map[bidding.ParticipantID]*miner.Participant)
	fed, nets, err := newFederation(cfg.withDefaults(), roster)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range nets {
		x.net.Consensus = miner.ProofOfStake
		t.Cleanup(x.net.Close)
	}
	return fed, nets, roster
}

// homeOf returns a location the federation homes to metro m.
func homeOf(t *testing.T, fed *metro.Federation, m int) bidding.Location {
	t.Helper()
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			loc := bidding.Location{X: (float64(i) + 0.5) * metro.DefaultCellSize, Y: (float64(j) + 0.5) * metro.DefaultCellSize}
			if fed.Home(loc) == m {
				return loc
			}
		}
	}
	t.Fatalf("no cell homes to metro %d", m)
	return bidding.Location{}
}

func fedRequest(id, client string, loc bidding.Location, cpu, value float64) *bidding.Request {
	return &bidding.Request{
		ID: bidding.OrderID(id), Client: bidding.ParticipantID(client), Location: loc,
		Resources: resource.Vector{resource.CPU: cpu, resource.RAM: cpu * 4},
		Start:     0, End: 100, Duration: 100,
		Bid: value, TrueValue: value,
	}
}

func fedOffer(id, provider string, loc bidding.Location, cpu, cost float64) *bidding.Offer {
	return &bidding.Offer{
		ID: bidding.OrderID(id), Provider: bidding.ParticipantID(provider), Location: loc,
		Resources: resource.Vector{resource.CPU: cpu, resource.RAM: cpu * 4},
		Start:     0, End: 100,
		Bid: cost, TrueCost: cost,
	}
}

// fedRound runs one federated round and audits conservation after it.
func fedRound(t *testing.T, fed *metro.Federation, reqs []*bidding.Request, offs []*bidding.Offer) *metro.RoundResult {
	t.Helper()
	res, err := fed.Round(reqs, offs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	return res
}

func checkNoDoubleSettle(t *testing.T, nets []*ledgerExchange) {
	t.Helper()
	chains := make([]*ledger.Chain, len(nets))
	for m, x := range nets {
		chains[m] = x.net.Chain()
	}
	if _, _, err := ledger.CheckNoDoubleSettle(nil, chains...); err != nil {
		t.Fatal(err)
	}
}

// settledOn reports whether the request appears in an allocation on the
// metro's chain.
func settledOn(t *testing.T, x *ledgerExchange, id string) bool {
	t.Helper()
	chain := x.net.Chain()
	for h := 0; h < chain.Len(); h++ {
		records, err := ledger.DecodeAllocation(chain.BlockAt(h).Body.Allocation)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range records {
			if rec.RequestID == id {
				return true
			}
		}
	}
	return false
}

// starveUntilSpilled submits r-spill to metro 0, which never has supply,
// and keeps metro 0 clearing with filler bids priced to never match until
// the request's carry budget is gone and it spills.
func starveUntilSpilled(t *testing.T, fed *metro.Federation) {
	t.Helper()
	l0 := homeOf(t, fed, 0)
	fedRound(t, fed, []*bidding.Request{fedRequest("r-spill", "alice", l0, 2, 10)}, nil)
	for i := 0; i < 3; i++ {
		fedRound(t, fed, []*bidding.Request{fedRequest(fmt.Sprintf("r-fill-%d", i), "alice", l0, 1, 0.001)}, nil)
	}
	if got := fed.Stats().Spills; got != 1 {
		t.Fatalf("after carry-budget exhaustion want 1 spill, got %d", got)
	}
}

// supplyNeighbor gives metro 1 supply, plus a lower-bid local request to
// absorb the trade reduction so the spilled request's trade survives.
func supplyNeighbor(t *testing.T, fed *metro.Federation) *metro.RoundResult {
	t.Helper()
	l1 := homeOf(t, fed, 1)
	return fedRound(t, fed,
		[]*bidding.Request{fedRequest("r-setter", "setter", l1, 2, 5)},
		[]*bidding.Offer{fedOffer("o-b", "prov", l1, 8, 1)})
}

// TestLedgerFederationSpillSettlesOnNeighborChain drives the full
// ledger-mode spill path: a request with no supply on its home exchange
// exhausts its carry budget there, the relay participant re-seals it on
// the neighbor metro, and it settles on the neighbor's chain — exactly
// once federation-wide.
func TestLedgerFederationSpillSettlesOnNeighborChain(t *testing.T) {
	fed, nets, _ := ledgerFed(t, Config{Metros: 2})
	starveUntilSpilled(t, fed)
	res := supplyNeighbor(t, fed)
	if res.Outcomes[1] == nil || nets[1].last == nil {
		t.Fatal("metro 1 round did not run")
	}
	if res.Outcomes[0] != nil || nets[0].last != nil {
		t.Fatal("metro 0 had no bids and must have cut no block")
	}
	matched := false
	for _, mt := range res.Outcomes[1].Matches {
		if mt.Request.ID == "r-spill" {
			matched = true
		}
	}
	if !matched {
		t.Fatalf("spilled request did not match on neighbor metro; outcome %+v", res.Outcomes[1])
	}
	if m, ok := fed.SettledIn("r-spill"); !ok || m != 1 {
		t.Fatalf("SettledIn(r-spill) = %d,%v, want 1,true", m, ok)
	}
	if st := fed.Stats(); st.MatchedSpill != 1 {
		t.Fatalf("stats %+v, want one spill match", st)
	}

	// The settlement must appear on metro 1's chain — and nowhere else.
	checkNoDoubleSettle(t, nets)
	if !settledOn(t, nets[1], "r-spill") {
		t.Fatal("spilled request settled nowhere on metro 1's chain")
	}
	if settledOn(t, nets[0], "r-spill") {
		t.Fatal("spilled request also settled on its home chain")
	}
}

// TestLedgerFederationSpillExpiresAtHopBudget: with a single hop allowed
// and no supply anywhere, a carried-out request dies after visiting its
// one neighbor rather than ping-ponging.
func TestLedgerFederationSpillExpiresAtHopBudget(t *testing.T) {
	fed, nets, _ := ledgerFed(t, Config{Metros: 2, MaxHops: 1})
	// 3 fillers exhaust metro 0; the spill lands on metro 1, where 4 more
	// fillers exhaust it again with no unvisited neighbor left.
	starveUntilSpilled(t, fed)
	// Metro-1 fillers are offers — too small for r-spill and absurdly
	// priced — because offers never spill and so cannot pollute the
	// spill counter the way filler requests would.
	l1 := homeOf(t, fed, 1)
	for i := 0; i < 4; i++ {
		fedRound(t, fed, nil, []*bidding.Offer{fedOffer(fmt.Sprintf("o-f1-%d", i), "alice", l1, 1, 999)})
	}
	st := fed.Stats()
	if st.Spills != 1 {
		t.Fatalf("hop budget exceeded: want 1 spill total, got %d", st.Spills)
	}
	if st.SpillExpired < 1 || st.ExpiredRequests < 1 {
		t.Fatalf("want the request to expire after its single hop, got %+v", st)
	}
	if _, ok := fed.SettledIn("r-spill"); ok {
		t.Fatal("the doomed request settled")
	}
	checkNoDoubleSettle(t, nets)
}

// TestLedgerFederationDenyRoutesPenaltyToOriginMetro closes the spill
// loop: a request that spilled from metro 0 and matched on metro 1 is
// denied by its client. The agreement must settle (Denied) on metro 1 —
// the chain that cleared it — but the reputational penalty must land on
// metro 0, the client's home exchange, leaving metro 1's store untouched.
func TestLedgerFederationDenyRoutesPenaltyToOriginMetro(t *testing.T) {
	fed, nets, _ := ledgerFed(t, Config{Metros: 2})
	starveUntilSpilled(t, fed)
	supplyNeighbor(t, fed)
	if nets[1].last == nil {
		t.Fatal("metro 1 round did not run")
	}

	// Locate r-spill's agreement on metro 1.
	reg := nets[1].net.Contracts()
	var spillAgr *contract.Agreement
	for _, id := range nets[1].last.Agreements {
		a, err := reg.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if a.Record.RequestID == "r-spill" {
			spillAgr = &a
		}
	}
	if spillAgr == nil {
		t.Fatalf("spilled request produced no agreement on metro 1: %v", nets[1].last.Agreements)
	}
	if origin, ok := fed.Origin("r-spill"); !ok || origin != 0 {
		t.Fatalf("Origin(r-spill) = %d,%v, want 0,true", origin, ok)
	}

	client := spillAgr.Client()
	if _, err := denyAtOrigin(fed, nets, 1, spillAgr.ID, client); err != nil {
		t.Fatal(err)
	}

	// The agreement settles Denied on the clearing metro...
	a, err := reg.Get(spillAgr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != contract.Denied {
		t.Fatalf("agreement status = %v, want denied on the clearing metro", a.Status)
	}
	// ...but the penalty decays the client's standing on its ORIGIN
	// metro only.
	if got := nets[0].net.Contracts().Reputation().Score(client); got >= reputation.Initial {
		t.Fatalf("origin metro score = %g, want decayed below %g", got, reputation.Initial)
	}
	if got := reg.Reputation().Score(client); got != reputation.Initial {
		t.Fatalf("clearing metro score = %g, want untouched %g", got, reputation.Initial)
	}
	// A second deny on the same agreement must fail, and the federation
	// still settles every order exactly once.
	if _, err := denyAtOrigin(fed, nets, 1, spillAgr.ID, client); err == nil {
		t.Fatal("double deny succeeded")
	}
	checkNoDoubleSettle(t, nets)

	// A local (never-spilled) match is denied into its own metro's store.
	for _, id := range nets[1].last.Agreements {
		if a, _ := reg.Get(id); a.Record.RequestID == "r-setter" {
			if _, err := denyAtOrigin(fed, nets, 1, id, a.Client()); err != nil {
				t.Fatal(err)
			}
			if got := reg.Reputation().Score(a.Client()); got >= reputation.Initial {
				t.Fatalf("local deny left the clearing metro's score at %g", got)
			}
		}
	}
}

// TestLedgerFederationValidation: the constructor rejects configurations
// the spill machinery cannot serve.
func TestLedgerFederationValidation(t *testing.T) {
	base := Config{Mode: Ledger, Miners: 1}.withDefaults()

	cfg := base
	cfg.Metros = 65
	if _, _, err := newFederation(cfg, nil); err == nil {
		t.Fatal("want error for 65 metros (the visited mask holds 64)")
	}
	cfg = base
	cfg.Metros, cfg.LatencyMatrix = 3, metro.DefaultMatrix(2)
	if _, _, err := newFederation(cfg, nil); err == nil {
		t.Fatal("want error for 2×2 matrix with 3 metros")
	}
	cfg.LatencyMatrix = &metro.LatencyMatrix{MS: [][]float64{{0, -1, 1}, {1, 0, 1}, {1, 1, 0}}}
	if _, _, err := newFederation(cfg, nil); err == nil {
		t.Fatal("want error for a negative latency")
	}
}

// TestLedgerFederationConservesExcludedBids: a bid the chain excluded —
// its key reveal was lost on every attempt — was submitted to the
// federation but never reached a book. The ledger exchange must hand it
// back as rejected, for an arrival and for a spilled-in request alike,
// so Submitted == Rejected + Matched + Expired + Live holds under
// Network.Faults too.
func TestLedgerFederationConservesExcludedBids(t *testing.T) {
	// Every reveal of one sender is lost during the given round of a
	// metro's own clock (rounds it cut no block in do not tick it).
	loseRevealsOf := func(p *miner.Participant, round int64) *chaos.Plan {
		return &chaos.Plan{Crashes: []chaos.Crash{{
			Window: chaos.Window{From: round, Until: round + 1}, Node: string(p.ID()),
		}}}
	}

	t.Run("arrival", func(t *testing.T) {
		fed, nets, roster := ledgerFed(t, Config{Metros: 2})
		victim, err := miner.NewParticipant(nil)
		if err != nil {
			t.Fatal(err)
		}
		roster["victim"] = victim
		nets[0].net.Faults = loseRevealsOf(victim, 1)
		l0 := homeOf(t, fed, 0)
		res := fedRound(t, fed,
			[]*bidding.Request{fedRequest("r-victim", "victim", l0, 2, 10), fedRequest("r-ok", "alice", l0, 2, 9), fedRequest("r-low", "bob", l0, 2, 5)},
			[]*bidding.Offer{fedOffer("o-a", "prov", l0, 8, 1)})
		if got := nets[0].last.Unrevealed; got != 1 {
			t.Fatalf("unrevealed = %d, want the victim's one bid", got)
		}
		if got := res.Outcomes[0].RejectedRequests; len(got) != 1 || got[0] != "r-victim" {
			t.Fatalf("rejected = %v, want [r-victim]", got)
		}
		if len(res.Outcomes[0].Matches) == 0 {
			t.Fatal("the round's other bids must still trade")
		}
		if st := fed.Stats(); st.SubmittedRequests != 3 || st.RejectedRequests != 1 {
			t.Fatalf("stats %+v", st)
		}
		// The excluded bid left no trace in the book: nothing to double-settle
		// later, nothing live.
		for _, r := range nets[0].LiveRequests() {
			if r.ID == "r-victim" {
				t.Fatal("excluded request is live in the book")
			}
		}
	})

	t.Run("spilled-in", func(t *testing.T) {
		fed, nets, _ := ledgerFed(t, Config{Metros: 2})
		// Metro 1's first block is the one the spill lands in.
		nets[1].net.Faults = loseRevealsOf(nets[1].relay, 1)
		starveUntilSpilled(t, fed)
		res := supplyNeighbor(t, fed)
		if got := nets[1].last.Unrevealed; got != 1 {
			t.Fatalf("unrevealed = %d, want the relay's one bid", got)
		}
		if got := res.Outcomes[1].RejectedRequests; len(got) != 1 || got[0] != "r-spill" {
			t.Fatalf("rejected = %v, want [r-spill]", got)
		}
		if _, ok := fed.SettledIn("r-spill"); ok {
			t.Fatal("an excluded request settled")
		}
		// It is gone for good: the next round neither re-admits nor loses it.
		fedRound(t, fed, nil, []*bidding.Offer{fedOffer("o-c", "prov", homeOf(t, fed, 1), 1, 1)})
		if st := fed.Stats(); st.Spills != 1 || st.RejectedRequests != 1 || st.MatchedSpill != 0 {
			t.Fatalf("stats %+v", st)
		}
		checkNoDoubleSettle(t, nets)
	})
}

// TestFederationOverBooksAndLedgerNetworks runs one seeded geo market
// through the federation over order books and over ledger networks. The
// outcomes legitimately differ — the evidence does — but the structure
// may not: in both, conservation holds after every round, no request
// settles twice, every spilled request walked the latency matrix's
// neighbour preference within the hop budget, and the federation counted
// the same submissions.
func TestFederationOverBooksAndLedgerNetworks(t *testing.T) {
	lat := &metro.LatencyMatrix{MS: [][]float64{
		{0, 30, 5},
		{8, 0, 40},
		{1, 7, 0},
	}}
	base := Config{
		Rounds: 8, Metros: 3, Miners: 2, LatencyMatrix: lat, MaxHops: 2,
		Workload: workload.Config{Seed: 5, Requests: 30, GeoRadius: 0.6},
	}
	var stats []metro.Stats
	for _, mode := range []Mode{Fast, Ledger} {
		cfg := base
		cfg.Mode = mode
		cfg = cfg.withDefaults()
		fed, nets, err := newFederation(cfg, make(map[bidding.ParticipantID]*miner.Participant))
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range nets {
			x.net.Consensus = miner.ProofOfStake
			t.Cleanup(x.net.Close)
		}
		next := marketSource(cfg)
		held := make(map[bidding.OrderID][]int) // the metros that held a request, in order
		note := func(id bidding.OrderID, m int) {
			if p := held[id]; len(p) == 0 || p[len(p)-1] != m {
				held[id] = append(p, m)
			}
		}
		settled := make(map[bidding.OrderID]bool)
		for round := 0; round < cfg.Rounds; round++ {
			market := next(round)
			res, err := fed.Round(market.Requests, market.Offers, roundEvidence(cfg, round))
			if err != nil {
				t.Fatalf("mode %d round %d: %v", mode, round, err)
			}
			if err := fed.CheckConservation(); err != nil {
				t.Fatalf("mode %d round %d: %v", mode, round, err)
			}
			for m, out := range res.Outcomes {
				if out != nil {
					for _, mt := range out.Matches {
						if settled[mt.Request.ID] {
							t.Fatalf("mode %d: request %s settled twice", mode, mt.Request.ID)
						}
						settled[mt.Request.ID] = true
						note(mt.Request.ID, m)
					}
				}
				for _, r := range fed.Exchange(m).LiveRequests() {
					note(r.ID, m)
				}
			}
		}
		hops := 0
		for id, path := range held {
			if origin, ok := fed.Origin(id); !ok || origin != path[0] {
				t.Fatalf("mode %d: %s first held by metro %d, origin %d,%v", mode, id, path[0], origin, ok)
			}
			if len(path)-1 > cfg.MaxHops {
				t.Fatalf("mode %d: %s path %v exceeds %d hops", mode, id, path, cfg.MaxHops)
			}
			visited := map[int]bool{path[0]: true}
			for i := 1; i < len(path); i++ {
				want := -1
				for _, n := range lat.Neighbors(path[i-1]) {
					if !visited[n] {
						want = n
						break
					}
				}
				if path[i] != want {
					t.Fatalf("mode %d: %s path %v: hop %d went to metro %d, nearest unvisited is %d", mode, id, path, i, path[i], want)
				}
				visited[path[i]] = true
				hops++
			}
		}
		if st := fed.Stats(); st.Spills == 0 || hops == 0 || st.MatchedSpill == 0 {
			t.Fatalf("mode %d: the spill path was not exercised: %+v, %d observed hops", mode, st, hops)
		}
		if nets != nil {
			checkNoDoubleSettle(t, nets)
		}
		stats = append(stats, fed.Stats())
	}
	if a, b := stats[0], stats[1]; a.SubmittedRequests != b.SubmittedRequests || a.SubmittedOffers != b.SubmittedOffers ||
		a.SubmittedRequests != base.Rounds*base.Workload.Requests {
		t.Fatalf("submissions differ: books %+v, ledger %+v", a, b)
	}
}
