package paralleltest

import (
	"fmt"
	"math"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/reputation"
	"decloud/internal/resource"
	"decloud/internal/workload"
)

// TestEquivalenceRandomizedMarkets is the acceptance property of the
// parallel mode: across ≥ 50 randomized markets — varying size,
// flexibility, geography, client grouping, and every mechanism config
// axis — the Outcome at workers ∈ {1, 2, 4, GOMAXPROCS} is
// byte-identical to the sequential run. Run it under -race to also
// exercise the memory model, not just the values.
func TestEquivalenceRandomizedMarkets(t *testing.T) {
	counts := append([]int{1}, WorkerCounts()...)
	trials := 56
	if testing.Short() {
		trials = 12
	}
	for seed := 0; seed < trials; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			wcfg := workload.Config{
				Seed:     int64(1000 + seed),
				Requests: 24 + (seed%5)*18,
			}
			if seed%3 == 1 {
				wcfg.Flexibility = 0.8
			}
			if seed%5 == 2 {
				wcfg.GeoRadius = 0.4
			}
			if seed%7 == 3 {
				wcfg.RequestsPerClient = 3
			}
			m := workload.Generate(wcfg)

			cfg := auction.DefaultConfig()
			cfg.Evidence = []byte(fmt.Sprintf("equiv-evidence-%d", seed))
			switch seed % 4 { // 0 and 1 run the default config
			case 2:
				cfg.StrictReduction = true
			case 3:
				// Reputation-gated variant: some providers demand a
				// minimum client reputation and some clients have a
				// denial history, so the concurrent pre-passes hit the
				// shared reputation store's read path.
				rep := reputation.NewStore()
				for i, o := range m.Offers {
					if i%3 == 0 {
						o.MinReputation = 0.85
					}
				}
				for i, r := range m.Requests {
					if i%4 == 0 {
						rep.RecordDeny(r.Client)
					}
				}
				cfg.Reputation = rep
			}
			Assert(t, m.Requests, m.Offers, cfg, counts)
		})
	}
}

// TestEquivalenceIndexedVsNaive is the acceptance property of the
// indexed matching engine: across the same ≥ 50 randomized markets as
// the worker sweep, the production pipeline (kind bitmasks, time-bucket
// and locality-strip pruning, bounded top-k, dense economics) produces
// Outcomes byte-identical to the brute-force reference pipeline, at
// workers ∈ {1, 2, 4}. Distinct seed offsets keep the markets disjoint
// from the worker-sweep test so the two properties don't share blind
// spots.
func TestEquivalenceIndexedVsNaive(t *testing.T) {
	counts := []int{1, 2, 4}
	trials := 56
	if testing.Short() {
		trials = 12
	}
	for seed := 0; seed < trials; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			wcfg := workload.Config{
				Seed:     int64(5000 + seed),
				Requests: 24 + (seed%5)*18,
			}
			if seed%3 == 1 {
				wcfg.Flexibility = 0.8
			}
			switch seed % 5 {
			case 2:
				wcfg.GeoRadius = 0.4
			case 4:
				// Reaches that prune: the locality strip holds a few
				// percent of the offers, and enough providers that
				// most requests still find one.
				wcfg.GeoRadius, wcfg.Providers = 0.02, 1500
			}
			if seed%7 == 3 {
				wcfg.RequestsPerClient = 3
			}
			m := workload.Generate(wcfg)

			cfg := auction.DefaultConfig()
			cfg.Evidence = []byte(fmt.Sprintf("indexed-evidence-%d", seed))
			switch seed % 4 { // 0 and 1 run the default config
			case 2:
				cfg.StrictReduction = true
			case 3:
				rep := reputation.NewStore()
				for i, o := range m.Offers {
					if i%3 == 0 {
						o.MinReputation = 0.85
					}
				}
				for i, r := range m.Requests {
					if i%4 == 0 {
						rep.RecordDeny(r.Client)
					}
				}
				cfg.Reputation = rep
			}
			AssertIndexedVsNaive(t, m.Requests, m.Offers, cfg, counts)
		})
	}
}

// TestEquivalenceIndexedDegenerate points the indexed-vs-naive oracle at
// the blocks most likely to trip index construction: empty and one-sided
// blocks, and a block with invalid orders the screening pass rejects
// before the index is built.
func TestEquivalenceIndexedDegenerate(t *testing.T) {
	m := workload.Generate(workload.Config{Seed: 7, Requests: 20})
	cfg := auction.DefaultConfig()
	cfg.Evidence = []byte("indexed-degenerate")

	AssertIndexedVsNaive(t, nil, nil, cfg, nil)
	AssertIndexedVsNaive(t, m.Requests, nil, cfg, nil)
	AssertIndexedVsNaive(t, nil, m.Offers, cfg, nil)

	reqs := append([]*bidding.Request(nil), m.Requests...)
	for i := 0; i < len(reqs); i += 5 {
		bad := *reqs[i]
		bad.Resources = nil
		reqs[i] = &bad
	}
	AssertIndexedVsNaive(t, reqs, m.Offers, cfg, nil)
}

// TestEquivalenceNonFiniteLocation: offers at (0.9, NaN) are out of
// every client's reach, since a NaN distance is within no radius. They
// must not crowd the reachable offers out of the clients' best sets:
// the indexed engine's distance test once let them through, and its
// block then cleared nothing where the reference cleared 5 trades.
// Intake now refuses a non-finite coordinate (bidding.ErrBadLocation).
func TestEquivalenceNonFiniteLocation(t *testing.T) {
	var reqs []*bidding.Request
	var offs []*bidding.Offer
	for i := 0; i < 6; i++ {
		reqs = append(reqs, &bidding.Request{
			ID: bidding.OrderID(fmt.Sprintf("r%d", i)), Client: bidding.ParticipantID(fmt.Sprintf("c%d", i)),
			Submitted: int64(i), Resources: resource.Vector{resource.CPU: 2},
			Start: 0, End: 100, Duration: 50, Bid: 10 + float64(i),
			Location:    bidding.Location{X: 0.001 * float64(i), Y: 0.002},
			MaxDistance: 0.05,
		})
		offs = append(offs, &bidding.Offer{
			ID: bidding.OrderID(fmt.Sprintf("o%d", i)), Provider: bidding.ParticipantID(fmt.Sprintf("p%d", i)),
			Submitted: int64(i), Resources: resource.Vector{resource.CPU: 4},
			Start: 0, End: 100, Bid: 1 + float64(i)/10,
			Location: bidding.Location{X: 0.003, Y: 0.001},
		})
	}
	for i := 0; i < 12; i++ {
		offs = append(offs, &bidding.Offer{
			ID: bidding.OrderID(fmt.Sprintf("nan%02d", i)), Provider: bidding.ParticipantID(fmt.Sprintf("q%02d", i)),
			Submitted: int64(i), Resources: resource.Vector{resource.CPU: 8},
			Start: 0, End: 100, Bid: 0.5,
			Location: bidding.Location{X: 0.9, Y: math.NaN()},
		})
	}
	cfg := auction.DefaultConfig()
	cfg.Evidence = []byte("non-finite-location")
	AssertIndexedVsNaive(t, reqs, offs, cfg, []int{1, 2, 4})
	out := auction.Run(reqs, offs, cfg)
	if len(out.Matches) == 0 || len(out.RejectedOffers) != 12 {
		t.Fatalf("got %d trades and %d refused offers, want some trades and 12 refused", len(out.Matches), len(out.RejectedOffers))
	}
}

// TestEquivalenceDegenerateBlocks covers the edges the randomized sweep
// can miss: empty blocks, one-sided blocks, and blocks containing
// invalid orders that the screening pass must reject identically.
func TestEquivalenceDegenerateBlocks(t *testing.T) {
	m := workload.Generate(workload.Config{Seed: 7, Requests: 20})
	cfg := auction.DefaultConfig()
	cfg.Evidence = []byte("degenerate")

	Assert(t, nil, nil, cfg, nil)
	Assert(t, m.Requests, nil, cfg, nil)
	Assert(t, nil, m.Offers, cfg, nil)

	// Invalidate a slice of orders (empty resources fail validation).
	reqs := append([]*bidding.Request(nil), m.Requests...)
	for i := 0; i < len(reqs); i += 5 {
		bad := *reqs[i]
		bad.Resources = nil
		reqs[i] = &bad
	}
	Assert(t, reqs, m.Offers, cfg, nil)
}

// TestEquivalenceGreedyBenchmark pins the benchmark pipeline too: the
// greedy allocator shares the parallel scoring and pre-pass stages, so
// its outcome must be worker-count-invariant as well.
func TestEquivalenceGreedyBenchmark(t *testing.T) {
	m := workload.Generate(workload.Config{Seed: 11, Requests: 90})
	for _, w := range WorkerCounts() {
		seq := auction.DefaultConfig()
		seq.Workers = 0
		want, err := MarshalOutcome(auction.RunGreedy(m.Requests, m.Offers, seq))
		if err != nil {
			t.Fatal(err)
		}
		cur := seq
		cur.Workers = w
		got, err := MarshalOutcome(auction.RunGreedy(m.Requests, m.Offers, cur))
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Fatalf("greedy benchmark diverges at workers=%d: %s", w, diffSummary(want, got))
		}
	}
}

// TestCheckDetectsDivergence makes sure the harness itself can fail:
// comparing outcomes of two different blocks must produce a diff, so a
// silently-green harness bug cannot hide a real divergence.
func TestCheckDetectsDivergence(t *testing.T) {
	a := workload.Generate(workload.Config{Seed: 1, Requests: 30})
	b := workload.Generate(workload.Config{Seed: 2, Requests: 30})
	cfg := auction.DefaultConfig()
	outA, err := MarshalOutcome(auction.Run(a.Requests, a.Offers, cfg))
	if err != nil {
		t.Fatal(err)
	}
	outB, err := MarshalOutcome(auction.Run(b.Requests, b.Offers, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if string(outA) == string(outB) {
		t.Fatal("distinct markets marshaled identically — harness cannot detect anything")
	}
	if s := diffSummary(outA, outB); s == "" {
		t.Fatal("empty diff summary for differing outcomes")
	}
}
