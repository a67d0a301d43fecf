package devnet

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestFederatedSoak is the geo-federated end-to-end soak: 3 metro
// exchanges × 2 miner processes each, two participants per metro, under
// background transport chaos plus a partition window that isolates the
// last metro wholesale — its own mesh keeps consensus, but every
// inter-metro spill link into or out of it severs mid-soak. At teardown
// each metro's replicas must be byte-identical, each metro's chain must
// pass the conservation audit against the union of participant AND
// spill-relay reports, and no request root may settle on two metro
// chains.
func TestFederatedSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process soak; skipped in -short")
	}
	const budget = 5 * time.Minute
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()

	dir := t.TempDir()
	sum, err := Run(ctx, Topology{
		Miners: 2, // per metro
		// Two per metro: a participant is one client, and a one-client
		// exchange clears nothing — trade reduction bars the price-setting
		// client, which is then everybody.
		Participants: 6,
		Metros:       3,
		Dir:          dir,
		Seed:         11,
		Rate:         6,
		Soak:         10 * time.Second,
		Partition:    true,
		Incremental:  true,
		// Same generosity as TestSoak3x8: race-instrumented children on a
		// loaded 1-CPU runner drain slowly, and here THREE producers must
		// drain before the run counts as stable.
		ConvergeTimeout: 3 * time.Minute,
	})
	if err != nil {
		// Distinguish a starved runner from a broken protocol, exactly as
		// the flat soak does: timeout shapes skip, divergence and
		// conservation violations stay fatal.
		starved := errors.Is(err, context.DeadlineExceeded) ||
			strings.Contains(err.Error(), "no convergence within") ||
			strings.Contains(err.Error(), "never stabilized within")
		if starved && time.Since(start) > budget/2 {
			t.Skipf("runner too slow for the federated soak (%.0fs elapsed): %v", time.Since(start).Seconds(), err)
		}
		t.Fatalf("federated devnet run: %v", err)
	}

	if len(sum.MetroConvergence) != 3 || len(sum.MetroConservation) != 3 {
		t.Fatalf("expected 3 per-metro results, got %d/%d",
			len(sum.MetroConvergence), len(sum.MetroConservation))
	}
	totalMatched, totalCommitted := 0, 0
	for m, conv := range sum.MetroConvergence {
		if conv.Replicas != 2 {
			t.Fatalf("metro %d: expected 2 agreeing replicas, got %d", m, conv.Replicas)
		}
		if conv.Height < 1 {
			t.Fatalf("metro %d: empty chain", m)
		}
		c := sum.MetroConservation[m]
		if c.Committed == 0 {
			t.Fatalf("metro %d: no traffic committed: %+v", m, *c)
		}
		totalMatched += c.Matched
		totalCommitted += c.Committed
		t.Logf("metro %d: %d blocks, %d committed, %d matched, %d unmatched, %d unrevealed",
			m, c.Blocks, c.Committed, c.Matched, c.Unmatched, c.Unrevealed)
	}
	if sum.CrossMetro == nil {
		t.Fatal("missing cross-metro settlement audit")
	}
	t.Logf("cross-metro: %d roots settled, %d via spill", sum.CrossMetro.SettledRoots, sum.CrossMetro.SpillSettled)
	if totalMatched == 0 {
		// With two clients per exchange every metro clears dozens of
		// trades per run; none at all means matching broke, not that
		// the runner was slow.
		t.Fatalf("no trades cleared (%d committed federation-wide)", totalCommitted)
	}
}
