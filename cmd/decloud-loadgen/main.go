// Command decloud-loadgen drives a live market node with an open-loop
// order stream and reports submit→commit latency percentiles.
//
// Against a producing node started with, e.g.:
//
//	decloud-node -name m0 -listen 127.0.0.1:9000 -produce 5s -quorum 0
//
// run a 10k-order test at 500 orders/second of Poisson traffic:
//
//	decloud-loadgen -addr 127.0.0.1:9000 -orders 10000 -rate 500 \
//	    -arrival poisson -out report.json
//
// The run is deterministic per -seed: the arrival schedule and every
// order's content replay exactly (sealing keys stay random). The JSON
// report carries counts, achieved rate, and the p50/p95/p99 latency
// summary; the same numbers print human-readably on stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"decloud/internal/loadgen"
	"decloud/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("decloud-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "market node address to drive (required)")
	orders := fs.Int("orders", 1000, "total orders to emit")
	rate := fs.Float64("rate", 0, "target arrival rate in orders/second (0 = as fast as possible)")
	arrival := fs.String("arrival", "uniform", "arrival process: uniform or poisson")
	workers := fs.Int("workers", 4, "concurrent submit workers")
	conns := fs.Int("conns", 1, "TCP connections to shard submissions over (workers pin conn w%conns)")
	seed := fs.Int64("seed", 1, "deterministic schedule and order-stream seed")
	clients := fs.Int("clients", 0, "virtual client identities (default = workers)")
	epochOrders := fs.Int("epoch-orders", 0, "orders per workload epoch (default 512)")
	offerFraction := fs.Float64("offer-fraction", 0, "fraction of each epoch that is supply (default 0.25)")
	geo := fs.Float64("geo", 0, "scatter virtual clients over the unit square; requests match within this radius")
	metros := fs.Int("metros", 0, "steer client homes toward this many metro exchanges (needs -geo)")
	metroMix := fs.String("metro-mix", "", "comma-separated per-metro arrival weights, e.g. 6,2,1,1 (default uniform)")
	drain := fs.Duration("drain", 90*time.Second, "stall timeout while waiting for outstanding commits")
	out := fs.String("out", "", "write the JSON report to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addr == "" {
		fmt.Fprintln(stderr, "decloud-loadgen: -addr is required")
		return 2
	}
	var mix []float64
	if *metroMix != "" {
		for _, part := range strings.Split(*metroMix, ",") {
			w, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fmt.Fprintf(stderr, "decloud-loadgen: bad -metro-mix entry %q: %v\n", part, err)
				return 2
			}
			mix = append(mix, w)
		}
	}

	lcfg := loadgen.Config{
		Addr:    *addr,
		Orders:  *orders,
		Rate:    *rate,
		Arrival: loadgen.Arrival(*arrival),
		Workers: *workers,
		Conns:   *conns,
		Seed:    *seed,
		Stream: workload.StreamConfig{
			Clients:       *clients,
			EpochOrders:   *epochOrders,
			OfferFraction: *offerFraction,
			GeoRadius:     *geo,
			GeoMetros:     *metros,
			GeoMix:        mix,
		},
		DrainTimeout: *drain,
	}
	eng := loadgen.New(lcfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := eng.Run(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "decloud-loadgen: %v\n", err)
		if rep == nil {
			return 1
		}
		// fall through: a partial report is still worth printing
	}
	fmt.Fprintf(stdout, "submitted %d  committed %d  matched %d  errors %d\n",
		rep.Submitted, rep.Committed, rep.Matched, rep.Errors)
	fmt.Fprintf(stdout, "emit %.2fs (%.1f orders/s achieved)  drain %.2fs\n",
		rep.EmitSeconds, rep.AchievedRate, rep.DrainSeconds)
	fmt.Fprintf(stdout, "latency p50 %.3fs  p95 %.3fs  p99 %.3fs  max %.3fs (n=%d)\n",
		rep.Latency.P50, rep.Latency.P95, rep.Latency.P99, rep.Latency.Max, rep.Latency.Count)
	if *out != "" {
		data, merr := json.MarshalIndent(rep, "", "  ")
		if merr != nil {
			fmt.Fprintf(stderr, "decloud-loadgen: %v\n", merr)
			return 1
		}
		data = append(data, '\n')
		if werr := os.WriteFile(*out, data, 0o644); werr != nil {
			fmt.Fprintf(stderr, "decloud-loadgen: %v\n", werr)
			return 1
		}
		fmt.Fprintf(stdout, "report written to %s\n", *out)
	}
	if err != nil {
		return 1
	}
	return 0
}
