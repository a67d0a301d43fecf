package loadgen

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"decloud/internal/auction"
	"decloud/internal/p2p"
)

// TestScheduleDeterminism: same seed → same emission schedule, different
// seed diverges (Poisson), schedules are non-decreasing, and the mean
// Poisson gap tracks 1/rate.
func TestScheduleDeterminism(t *testing.T) {
	cases := []struct {
		name    string
		arrival Arrival
		rate    float64
	}{
		{"uniform", ArrivalUniform, 200},
		{"poisson", ArrivalPoisson, 200},
		{"default is uniform", "", 50},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Schedule(1000, tc.rate, tc.arrival, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Schedule(1000, tc.rate, tc.arrival, 7)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("offset %d diverged under same seed: %v vs %v", i, a[i], b[i])
				}
				if i > 0 && a[i] < a[i-1] {
					t.Fatalf("schedule decreases at %d: %v after %v", i, a[i], a[i-1])
				}
			}
			mean := a[len(a)-1].Seconds() / float64(len(a)-1)
			want := 1 / tc.rate
			if mean < want*0.8 || mean > want*1.2 {
				t.Fatalf("mean gap %.5fs, want ≈ %.5fs", mean, want)
			}
		})
	}
	p1, _ := Schedule(100, 100, ArrivalPoisson, 1)
	p2, _ := Schedule(100, 100, ArrivalPoisson, 2)
	same := 0
	for i := range p1 {
		if p1[i] == p2[i] {
			same++
		}
	}
	if same == len(p1) {
		t.Fatal("different seeds produced identical Poisson schedules")
	}
}

func TestScheduleEdgeCases(t *testing.T) {
	zero, err := Schedule(10, 0, ArrivalUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range zero {
		if d != 0 {
			t.Fatalf("rate-0 offset %d = %v, want 0", i, d)
		}
	}
	if _, err := Schedule(10, 100, Arrival("weibull"), 1); err == nil {
		t.Fatal("unknown arrival process accepted")
	}
}

// startMarket runs a producing miner for the engine to drive: it rounds
// whenever the mempool holds at least minPool bids (so a round never
// clears the stream's leading offers without their requests) until ctx
// ends. testing.TB so the frontier benchmarks share the same market as
// the unit tests.
func startMarket(t testing.TB, ctx context.Context, minPool int, cfg p2p.RoundConfig) *p2p.MarketNode {
	return startMarketWith(t, ctx, minPool, cfg, auction.DefaultConfig())
}

// startMarketWith is startMarket with an explicit mechanism config, so
// the drain tests can also run the market over the incremental book.
func startMarketWith(t testing.TB, ctx context.Context, minPool int, cfg p2p.RoundConfig, acfg auction.Config) *p2p.MarketNode {
	t.Helper()
	mn, err := p2p.NewMarketNode("load-m0", "127.0.0.1:0", 8, acfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mn.Close() })
	done := make(chan struct{})
	t.Cleanup(func() { <-done })
	go func() {
		defer close(done)
		for ctx.Err() == nil {
			if mn.MempoolSize() < minPool {
				time.Sleep(20 * time.Millisecond)
				continue
			}
			if _, err := mn.ProduceBlockOpts(ctx, cfg); err != nil && ctx.Err() == nil {
				t.Logf("produce: %v", err)
			}
		}
	}()
	return mn
}

// testRound is the round shape the unit tests drive: short windows, two
// retries — tuned for hundreds of bids, not the benchmark frontier.
func testRound() p2p.RoundConfig {
	return p2p.RoundConfig{RevealWindow: 500 * time.Millisecond, RevealRetries: 2}
}

// skipIfStarved converts a wall-budget overrun into a skip instead of a
// failure. The drain tests bound their runs with a context deadline; on
// a loaded 1-CPU runner the market can fall behind the schedule without
// anything being wrong with the protocol. A DeadlineExceeded after the
// budget elapsed is a starved runner; any other error stays fatal at the
// caller.
func skipIfStarved(t *testing.T, err error, start time.Time, budget time.Duration) {
	t.Helper()
	if errors.Is(err, context.DeadlineExceeded) && time.Since(start) >= budget-time.Second {
		t.Skipf("runner too slow: drain did not finish within the %s budget (%v)", budget, err)
	}
}

// TestEngineEndToEnd: a small open-loop run against a live TCP market
// commits every order and yields a populated latency summary.
func TestEngineEndToEnd(t *testing.T) {
	const budget = 60 * time.Second
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	mn := startMarket(t, ctx, 300, testRound())

	eng := New(Config{
		Addr:    mn.Addr(),
		Orders:  300,
		Rate:    0, // as fast as possible
		Workers: 3,
		Conns:   2, // exercise sharded submission: workers pin conn w%2
		Seed:    11,
	})
	rep, err := eng.Run(ctx)
	if err != nil {
		skipIfStarved(t, err, start, budget)
		t.Fatalf("run: %v (report %+v)", err, rep)
	}
	if rep.Submitted != 300 || rep.Errors != 0 {
		t.Fatalf("submitted %d (errors %d), want 300/0", rep.Submitted, rep.Errors)
	}
	if rep.Committed != rep.Submitted {
		t.Fatalf("committed %d of %d", rep.Committed, rep.Submitted)
	}
	if rep.Matched == 0 {
		t.Fatal("no matches: the stream market did not clear over the wire")
	}
	if rep.Latency.Count != rep.Committed {
		t.Fatalf("latency samples %d, want %d", rep.Latency.Count, rep.Committed)
	}
	if !(rep.Latency.P50 > 0 && rep.Latency.P50 <= rep.Latency.P95 && rep.Latency.P95 <= rep.Latency.P99) {
		t.Fatalf("implausible percentiles: %+v", rep.Latency)
	}
	if rep.AchievedRate <= 0 {
		t.Fatalf("achieved rate %v", rep.AchievedRate)
	}
}

// TestEnginePacedRun: with a finite rate the emission phase takes at
// least the scheduled span — the schedule, not the market, sets the pace.
func TestEnginePacedRun(t *testing.T) {
	const budget = 60 * time.Second
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	mn := startMarket(t, ctx, 100, testRound())
	eng := New(Config{
		Addr:    mn.Addr(),
		Orders:  100,
		Rate:    200,
		Arrival: ArrivalPoisson,
		Workers: 2,
		Seed:    3,
	})
	rep, err := eng.Run(ctx)
	if err != nil {
		skipIfStarved(t, err, start, budget)
		t.Fatalf("run: %v", err)
	}
	if rep.Committed != 100 {
		t.Fatalf("committed %d, want 100", rep.Committed)
	}
	sched, _ := Schedule(100, 200, ArrivalPoisson, 3)
	if got, want := rep.EmitSeconds, sched[len(sched)-1].Seconds(); got < want*0.9 {
		t.Fatalf("emission finished in %.3fs, schedule spans %.3fs — not open-loop paced", got, want)
	}
}

// TestEngineIncrementalMarketDrain: the same open-loop drain against a
// market node running over the persistent order book. Every order still
// commits and the stream still clears — the continuous market is a
// drop-in behind the wire protocol.
func TestEngineIncrementalMarketDrain(t *testing.T) {
	const budget = 60 * time.Second
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	acfg := auction.DefaultConfig()
	acfg.Incremental = true
	mn := startMarketWith(t, ctx, 200, testRound(), acfg)

	eng := New(Config{
		Addr:    mn.Addr(),
		Orders:  200,
		Rate:    0,
		Workers: 3,
		Seed:    13,
	})
	rep, err := eng.Run(ctx)
	if err != nil {
		skipIfStarved(t, err, start, budget)
		t.Fatalf("run: %v (report %+v)", err, rep)
	}
	if rep.Submitted != 200 || rep.Errors != 0 {
		t.Fatalf("submitted %d (errors %d), want 200/0", rep.Submitted, rep.Errors)
	}
	if rep.Committed != rep.Submitted {
		t.Fatalf("committed %d of %d", rep.Committed, rep.Submitted)
	}
	if rep.Matched == 0 {
		t.Fatal("no matches: the incremental market did not clear over the wire")
	}
}

// TestEngineShutdownMidFlightLeaksNothing: cancelling mid-run returns
// promptly with a partial report and leaves no goroutine behind.
func TestEngineShutdownMidFlightLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()

	mn, err := p2p.NewMarketNode("leak-m0", "127.0.0.1:0", 8, auction.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	eng := New(Config{
		Addr:    mn.Addr(),
		Orders:  100000,
		Rate:    50, // slow: the run would take ~30 min; we cancel after a moment
		Workers: 2,
		Seed:    5,
	})
	errc := make(chan error, 1)
	repc := make(chan *Report, 1)
	go func() {
		rep, err := eng.Run(ctx)
		repc <- rep
		errc <- err
	}()
	time.Sleep(300 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	rep := <-repc
	if rep == nil || rep.Submitted >= 100000 {
		t.Fatalf("expected a partial report, got %+v", rep)
	}
	mn.Close()

	// Give readers/timers a beat to unwind, then require the goroutine
	// count back at (or below) the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines leaked: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}
