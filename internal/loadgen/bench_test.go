package loadgen

import (
	"context"
	"fmt"
	"testing"
	"time"

	"decloud/internal/p2p"
)

// BenchmarkLoadRound maps the load frontier: each point pools N orders
// on a live TCP market node and commits them in one full auction round
// (seal → submit → pool → preamble PoW → reveal → allocate → block).
// minPool == N gates production, so every point measures exactly
// "N open orders per round" and reports it in custom units
// (orders/round, rounds/sec, p50_s/p95_s/p99_s) next to ns/op.
//
// The 100000-order point is the acceptance floor for this harness: a
// sustained round of ≥1e5 open orders over a real socket.
func BenchmarkLoadRound(b *testing.B) {
	for _, orders := range []int{10000, 30000, 100000} {
		b.Run(fmt.Sprintf("orders%d", orders), func(b *testing.B) {
			benchRounds(b, orders)
		})
	}
}

func benchRounds(b *testing.B, orders int) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	// The frontier round must gather up to 1e5 reveals over one
	// connection: generous windows, and retries in case a reveal burst
	// overruns the producer's channel.
	round := p2p.RoundConfig{RevealWindow: 30 * time.Second, RevealRetries: 2}
	mn := startMarket(b, ctx, orders, round)

	var committed, blocks, totalSec, p50, p95, p99 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h0 := int64(mn.Chain().Len())
		eng := New(Config{
			Addr:         mn.Addr(),
			Orders:       orders,
			Rate:         0, // open the floodgates; the round gates on minPool
			Workers:      8,
			Seed:         42 + int64(i),
			DrainTimeout: 3 * time.Minute,
		})
		rep, err := eng.Run(ctx)
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		if rep.Committed != rep.Submitted {
			b.Fatalf("committed %d of %d submitted", rep.Committed, rep.Submitted)
		}
		if rep.Matched == 0 {
			b.Fatal("the round cleared no trades")
		}
		rounds := float64(int64(mn.Chain().Len()) - h0)
		if rounds == 0 {
			b.Fatal("no block was produced")
		}
		committed += float64(rep.Committed)
		blocks += rounds
		totalSec += rep.EmitSeconds + rep.DrainSeconds
		p50 += rep.Latency.P50
		p95 += rep.Latency.P95
		p99 += rep.Latency.P99
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(committed/blocks, "orders/round")
	b.ReportMetric(blocks/totalSec, "rounds/sec")
	b.ReportMetric(p50/n, "p50_s")
	b.ReportMetric(p95/n, "p95_s")
	b.ReportMetric(p99/n, "p99_s")
}
