// Command decloud-sim runs multi-round DeCloud market simulations, in
// fast mode (mechanism only) or full ledger mode (sealed bids, mining,
// key reveal, verification, contracts).
//
// Usage:
//
//	decloud-sim [-mode fast|ledger] [-rounds N] [-requests N]
//	            [-providers N] [-miners N] [-difficulty BITS]
//	            [-deny P] [-flex F] [-seed N] [-incremental]
//	            [-metros M] [-latency-matrix FILE] [-geo R]
//	            [-obs-addr HOST:PORT] [-obs-linger D] [-trace-out FILE]
//
// Ledger rounds overlap in the epoch pipeline whenever no round reads
// the last commit: one chain, -deny 0, no -incremental.
//
// With -incremental every round clears over a persistent order book
// that carries unmatched orders into later rounds.
//
// With -metros ≥ 2 the market federates over M geography-homed metro
// exchanges (internal/metro): orders route to the exchange owning their
// location's grid cell and unfillable requests spill to neighbors over
// the latency matrix (-latency-matrix overrides the default ring).
// Pair with -geo to give generated orders locations worth homing by.
//
// With -obs-addr the simulation serves live metrics (Prometheus text at
// /metrics, JSON at /vars, pprof under /debug/pprof/) while it runs;
// -obs-linger keeps the endpoint up that long after the last round so
// scrapers can read the final totals. -trace-out appends one JSON line
// per round (phase timeline) to FILE.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"decloud/internal/metro"
	"decloud/internal/obs"
	"decloud/internal/sim"
	"decloud/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("decloud-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "fast", "simulation mode: fast or ledger")
	rounds := fs.Int("rounds", 5, "number of auction rounds (blocks)")
	requests := fs.Int("requests", 100, "requests per round")
	providers := fs.Int("providers", 0, "providers per round (0 = requests/3)")
	miners := fs.Int("miners", 3, "miners in ledger mode")
	difficulty := fs.Int("difficulty", 10, "PoW difficulty in leading zero bits")
	deny := fs.Float64("deny", 0, "per-agreement client denial probability (ledger mode)")
	flex := fs.Float64("flex", 0, "request flexibility in (0,1]; 0 = inflexible")
	seed := fs.Int64("seed", 1, "random seed")
	incremental := fs.Bool("incremental", false, "clear over a persistent order book that carries unmatched orders itself")
	metros := fs.Int("metros", 0, "federate the market over this many metro exchanges (0/1 = monolithic)")
	latencyMatrix := fs.String("latency-matrix", "", "JSON file with the inter-metro latency matrix {\"latency_ms\": [[...]]}")
	distancePerMS := fs.Float64("distance-per-ms", 0, "Eq. 18 coupling: tighten a spilled request's MaxDistance by this much per ms of path latency")
	maxHops := fs.Int("max-hops", 0, "spill hop budget per request beyond its home metro (default 2)")
	geoRadius := fs.Float64("geo", 0, "scatter participants over the unit square; requests match within this radius")
	obsAddr := fs.String("obs-addr", "", "serve metrics/pprof on this address (empty = off)")
	obsLinger := fs.Duration("obs-linger", 0, "keep the obs endpoint up this long after the simulation")
	traceOut := fs.String("trace-out", "", "append per-round JSONL traces to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := sim.Config{
		Rounds: *rounds,
		Workload: workload.Config{
			Seed:        *seed,
			Requests:    *requests,
			Providers:   *providers,
			Flexibility: *flex,
			GeoRadius:   *geoRadius,
		},
		Metros:        *metros,
		MaxHops:       *maxHops,
		DistancePerMS: *distancePerMS,
		Miners:        *miners,
		Difficulty:    *difficulty,
		DenyProb:      *deny,
	}
	cfg.Auction.Incremental = *incremental
	if *latencyMatrix != "" {
		lm, err := metro.LoadMatrix(*latencyMatrix)
		if err != nil {
			fmt.Fprintf(stderr, "decloud-sim: %v\n", err)
			return 1
		}
		cfg.LatencyMatrix = lm
	}
	switch *mode {
	case "fast":
		cfg.Mode = sim.Fast
	case "ledger":
		cfg.Mode = sim.Ledger
	default:
		fmt.Fprintf(stderr, "decloud-sim: unknown mode %q\n", *mode)
		return 2
	}

	if *obsAddr != "" {
		cfg.Obs = obs.NewRegistry()
		srv, err := obs.Serve(*obsAddr, cfg.Obs)
		if err != nil {
			fmt.Fprintf(stderr, "decloud-sim: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "observability on http://%s/metrics\n", srv.Addr())
		if *obsLinger > 0 {
			defer time.Sleep(*obsLinger)
		}
	}
	if *traceOut != "" {
		f, err := obs.OpenTraceFile(*traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "decloud-sim: %v\n", err)
			return 1
		}
		defer f.Close()
		cfg.Tracer = obs.NewTracer(f)
	}

	res, err := sim.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "decloud-sim: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "%-5s %-8s %-7s %-7s %-10s %-10s %-6s %-8s %-9s",
		"round", "requests", "offers", "matches", "welfare", "benchmark", "ratio", "reduced%", "satisf.")
	if cfg.Mode == sim.Ledger {
		fmt.Fprintf(stdout, " %-9s %-7s %-7s", "winner", "agreed", "denied")
	}
	fmt.Fprintln(stdout)
	for _, m := range res.Rounds {
		fmt.Fprintf(stdout, "%-5d %-8d %-7d %-7d %-10.4f %-10.4f %-6.3f %-8.2f %-9.3f",
			m.Round, m.Requests, m.Offers, m.Matches, m.Welfare, m.BenchWelfare,
			m.WelfareRatio, m.ReducedRate*100, m.Satisfaction)
		if cfg.Mode == sim.Ledger {
			fmt.Fprintf(stdout, " %-9s %-7d %-7d", m.Winner, m.Agreed, m.Denied)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "\ntotal welfare: %.4f   mean welfare ratio: %.3f\n",
		res.TotalWelfare(), res.MeanWelfareRatio())
	if err := cfg.Tracer.Err(); err != nil {
		fmt.Fprintf(stderr, "decloud-sim: trace write: %v\n", err)
		return 1
	}
	return 0
}
