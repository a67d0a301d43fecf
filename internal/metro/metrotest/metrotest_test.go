package metrotest

import (
	"fmt"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/audit"
	"decloud/internal/bidding"
	"decloud/internal/metro"
)

func baseConfig() metro.Config {
	acfg := auction.DefaultConfig()
	acfg.Workers = 1
	return metro.Config{
		Auction:       acfg,
		MaxCarry:      2,
		MaxHops:       2,
		DistancePerMS: 0.002,
	}
}

// TestSingleMetroByteIdentity is the headline differential guarantee: a
// Metros=1 federation is byte-identical, round by round, to one
// monolithic book (and, transitively, to the from-scratch mechanism).
func TestSingleMetroByteIdentity(t *testing.T) {
	t.Parallel()
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for s := 0; s < seeds; s++ {
		tr := NewTrace(int64(s)+1, 40, 4)
		if err := CheckSingleMetroIdentity(baseConfig(), tr); err != nil {
			t.Fatalf("seed %d: %v", s+1, err)
		}
	}
}

// TestFederatedTopologies replays ≥40 seeded topologies through metros
// {1,2,4}: conservation must hold after every round.
func TestFederatedTopologies(t *testing.T) {
	t.Parallel()
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for _, metros := range []int{1, 2, 4} {
		metros := metros
		t.Run(fmt.Sprintf("M%d", metros), func(t *testing.T) {
			t.Parallel()
			for s := 0; s < seeds; s++ {
				cfg := baseConfig()
				cfg.Metros = metros
				if _, err := Replay(cfg, NewTrace(int64(s)+100, 36, 3), nil); err != nil {
					t.Fatalf("seed %d: %v", s, err)
				}
			}
		})
	}
}

// TestZeroLatencyFederation replays under a zero-latency matrix — the
// degenerate geography where spilling is free — and checks conservation
// plus that spilled requests actually settle remotely on at least one
// topology (the spill path is exercised, not just compiled).
func TestZeroLatencyFederation(t *testing.T) {
	t.Parallel()
	spillMatched := 0
	spills := 0
	for s := 0; s < 10; s++ {
		cfg := baseConfig()
		cfg.Metros = 4
		cfg.Latency = metro.UniformMatrix(4, 0)
		tr := NewTrace(int64(s)+500, 48, 4)
		st, err := Replay(cfg, tr, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		spillMatched += st.MatchedSpill
		spills += st.Spills
	}
	if spills == 0 {
		t.Fatal("no spills across 10 zero-latency topologies: spill path not exercised")
	}
	if spillMatched == 0 {
		t.Fatal("no spilled request ever matched remotely across 10 zero-latency topologies")
	}
}

// TestLatencyMonotoneSpills: raising the uniform inter-metro latency
// (with DistancePerMS fixed) can only shrink the set of feasible spills —
// the path latency consumes a spilled request's distance tolerance — so
// total spills must be non-increasing in latency, down to none once the
// latency spends every request's tolerance.
func TestLatencyMonotoneSpills(t *testing.T) {
	t.Parallel()
	tr := NewTrace(4242, 60, 4)
	var prev *metro.Stats
	for _, ms := range []float64{0, 60, 1000} {
		cfg := baseConfig()
		cfg.Metros = 4
		cfg.Latency = metro.UniformMatrix(4, ms)
		st, err := Replay(cfg, tr, nil)
		if err != nil {
			t.Fatalf("latency %v: %v", ms, err)
		}
		if prev != nil && st.Spills > prev.Spills {
			t.Fatalf("spills grew with latency: %d at lower latency, %d at %vms", prev.Spills, st.Spills, ms)
		}
		prev = &st
	}
	if prev.Spills != 0 {
		t.Fatalf("1000 ms at DistancePerMS %v spends every tolerance and should forbid every spill, got %d",
			baseConfig().DistancePerMS, prev.Spills)
	}
}

// TestPropertiesPerMetro re-runs the DSIC/IR/budget-balance audit on
// every metro's outcome of every cross-settlement round, against the
// exact order set that outcome was computed over.
func TestPropertiesPerMetro(t *testing.T) {
	t.Parallel()
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for _, metros := range []int{2, 4} {
		for s := 0; s < seeds; s++ {
			cfg := baseConfig()
			cfg.Metros = metros
			tr := NewTrace(int64(s)+900, 40, 3)
			_, err := Replay(cfg, tr, func(round, m int, reqs []*bidding.Request, offs []*bidding.Offer, out *auction.Outcome) error {
				if vs := audit.Outcome(reqs, offs, out); len(vs) > 0 {
					return fmt.Errorf("audit violations: %v", vs)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("metros %d seed %d: %v", metros, s, err)
			}
		}
	}
}

// TestNoDoubleSettle asserts the federation-level uniqueness invariant
// directly from the outcomes: across all rounds and metros, no request
// ID appears in two matches of different metros, and no request matches
// twice anywhere.
func TestNoDoubleSettle(t *testing.T) {
	t.Parallel()
	for s := 0; s < 10; s++ {
		cfg := baseConfig()
		cfg.Metros = 4
		cfg.Latency = metro.UniformMatrix(4, 5)
		tr := NewTrace(int64(s)+1300, 48, 4)
		settled := make(map[bidding.OrderID]int)
		_, err := Replay(cfg, tr, func(round, m int, reqs []*bidding.Request, offs []*bidding.Offer, out *auction.Outcome) error {
			for i := range out.Matches {
				id := out.Matches[i].Request.ID
				if prev, dup := settled[id]; dup {
					return fmt.Errorf("request %s settled in metro %d and again in metro %d", id, prev, m)
				}
				settled[id] = m
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
	}
}
