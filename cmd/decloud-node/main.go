// Command decloud-node runs a DeCloud miner node on a real TCP gossip
// network. Nodes verify and vote on every block they receive; a node
// started with -produce also acts as a block producer on that interval.
//
// Start a three-node network on one machine:
//
//	decloud-node -name m0 -listen 127.0.0.1:9000 -produce 5s -demo 20 &
//	decloud-node -name m1 -listen 127.0.0.1:9001 -peers 127.0.0.1:9000 &
//	decloud-node -name m2 -listen 127.0.0.1:9002 -peers 127.0.0.1:9000 &
//
// m0 generates a demo workload (20 requests per round via in-process
// participant clients), mines blocks every 5 s, and m1/m2 verify them.
// -chain FILE persists the replica across restarts.
//
// With -obs-addr the node serves live metrics (Prometheus text at
// /metrics, JSON at /vars, pprof under /debug/pprof/); -trace-out
// appends one JSON line per produced round (phase timeline) to FILE.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"decloud/internal/auction"
	"decloud/internal/obs"
	"decloud/internal/p2p"
	"decloud/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("decloud-node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("name", "node", "node name")
	listen := fs.String("listen", "127.0.0.1:0", "listen address")
	peers := fs.String("peers", "", "comma-separated peer addresses to join")
	difficulty := fs.Int("difficulty", 12, "PoW difficulty in leading zero bits")
	produce := fs.Duration("produce", 0, "produce a block every interval (0 = verify only)")
	quorum := fs.Int("quorum", 0, "OK votes required per produced block")
	revealWindow := fs.Duration("reveal-window", 3*time.Second, "how long to wait for key reveals")
	revealRetries := fs.Int("reveal-retries", 2, "preamble re-broadcasts when reveals are missing at the deadline")
	incremental := fs.Bool("incremental", false, "clear over a persistent order book, carrying unmatched orders across blocks")
	pipeline := fs.Bool("pipeline", false, "pipeline production: overlap the next round's reveals with the current round's votes")
	pipelineRounds := fs.Int("pipeline-rounds", 3, "rounds per pipelined batch (with -pipeline)")
	demo := fs.Int("demo", 0, "submit a demo workload of N requests before each production")
	chainFile := fs.String("chain", "", "persist the chain to this file after each block")
	obsAddr := fs.String("obs-addr", "", "serve metrics/pprof on this address (empty = off)")
	traceOut := fs.String("trace-out", "", "append per-round JSONL traces to this file")
	maxConns := fs.Int("max-conns", 0, "cap on simultaneous gossip connections (0 = unlimited)")
	maxFrameMB := fs.Int("max-frame-mb", 0, "cap on a single wire message in MiB (0 = default 256)")
	mempoolLimit := fs.Int("mempool-limit", 0, "cap on pending sealed bids (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	acfg := auction.DefaultConfig()
	acfg.Incremental = *incremental
	node, err := p2p.NewMarketNode(*name, *listen, *difficulty, acfg)
	if err != nil {
		fmt.Fprintf(stderr, "decloud-node: %v\n", err)
		return 1
	}
	defer node.Close()
	node.SetLimits(p2p.Limits{MaxConns: *maxConns, MaxFrameBytes: *maxFrameMB * 1024 * 1024})
	node.SetMempoolLimit(*mempoolLimit)
	fmt.Fprintf(stdout, "%s listening on %s\n", *name, node.Addr())

	var tracer *obs.Tracer
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		srv, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			fmt.Fprintf(stderr, "decloud-node: %v\n", err)
			return 1
		}
		defer srv.Close()
		node.SetObs(obs.NewMinerMetrics(reg))
		node.SetNetObs(obs.NewNetMetrics(reg))
		fmt.Fprintf(stdout, "observability on http://%s/metrics\n", srv.Addr())
	}
	if *traceOut != "" {
		f, err := obs.OpenTraceFile(*traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "decloud-node: %v\n", err)
			return 1
		}
		defer f.Close()
		tracer = obs.NewTracer(f)
		node.SetTracer(tracer)
	}

	for _, peer := range strings.Split(*peers, ",") {
		peer = strings.TrimSpace(peer)
		if peer == "" {
			continue
		}
		if err := node.Connect(peer); err != nil {
			fmt.Fprintf(stderr, "decloud-node: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "connected to %s\n", peer)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *produce <= 0 {
		fmt.Fprintln(stdout, "verify-only mode; ctrl-c to exit")
		<-ctx.Done()
		return 0
	}

	var demoClients []*p2p.ParticipantClient
	defer func() {
		for _, c := range demoClients {
			c.Close()
		}
	}()

	ticker := time.NewTicker(*produce)
	defer ticker.Stop()
	rcfg := p2p.RoundConfig{
		Quorum:        *quorum,
		RevealWindow:  *revealWindow,
		RevealRetries: *revealRetries,
	}
	round := 0
	for {
		select {
		case <-ctx.Done():
			if err := tracer.Err(); err != nil {
				fmt.Fprintf(stderr, "decloud-node: trace write: %v\n", err)
				return 1
			}
			return 0
		case <-ticker.C:
		}
		if *pipeline {
			// One tick produces a whole batch: round r+1's reveal window
			// overlaps round r's vote collection.
			batchCtx, cancel := context.WithTimeout(ctx,
				time.Duration(*pipelineRounds)*(*produce+10*time.Second))
			sums, err := node.RunPipeline(batchCtx, *pipelineRounds, rcfg, func(r int) error {
				if *demo <= 0 {
					return nil
				}
				clients, err := submitDemoWorkload(node.Addr(), *demo, int64(round+r))
				if err != nil {
					return err
				}
				demoClients = append(demoClients, clients...)
				// Give the gossip a moment to spread the bids.
				time.Sleep(200 * time.Millisecond)
				return nil
			})
			cancel()
			if err != nil {
				fmt.Fprintf(stderr, "pipelined batch: %v\n", err)
				continue
			}
			for _, s := range sums {
				if s.Err != nil {
					fmt.Fprintf(stderr, "round failed: %v\n", s.Err)
					continue
				}
				fmt.Fprintf(stdout, "block %d: %d trades, %d ok votes, %d bad, %d unrevealed\n",
					s.Summary.Block.Preamble.Height, len(s.Summary.Outcome.Matches),
					s.Summary.OKVotes, s.Summary.BadVotes, s.Summary.Unrevealed)
			}
			if *chainFile != "" {
				if err := node.Chain().SaveFile(*chainFile); err != nil {
					fmt.Fprintf(stderr, "persist chain: %v\n", err)
				}
			}
			round += *pipelineRounds
			continue
		}
		if *demo > 0 {
			clients, err := submitDemoWorkload(node.Addr(), *demo, int64(round))
			if err != nil {
				fmt.Fprintf(stderr, "demo workload: %v\n", err)
				continue
			}
			demoClients = append(demoClients, clients...)
			// Give the gossip a moment to spread the bids.
			time.Sleep(200 * time.Millisecond)
		}
		if node.MempoolSize() == 0 {
			fmt.Fprintln(stdout, "mempool empty; skipping round")
			continue
		}
		roundCtx, cancel := context.WithTimeout(ctx, *produce+10*time.Second)
		summary, err := node.ProduceBlockOpts(roundCtx, rcfg)
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "round failed: %v\n", err)
			continue
		}
		fmt.Fprintf(stdout, "block %d: %d trades, %d ok votes, %d bad, %d unrevealed\n",
			summary.Block.Preamble.Height, len(summary.Outcome.Matches),
			summary.OKVotes, summary.BadVotes, summary.Unrevealed)
		if *chainFile != "" {
			if err := node.Chain().SaveFile(*chainFile); err != nil {
				fmt.Fprintf(stderr, "persist chain: %v\n", err)
			}
		}
		round++
	}
}

// submitDemoWorkload creates ephemeral participant clients that seal and
// broadcast a generated market through the given node.
func submitDemoWorkload(nodeAddr string, requests int, seed int64) ([]*p2p.ParticipantClient, error) {
	market := workload.Generate(workload.Config{Seed: seed + 1, Requests: requests})
	var clients []*p2p.ParticipantClient
	newClient := func(tag string) (*p2p.ParticipantClient, error) {
		pc, err := p2p.NewParticipantClient(tag, "127.0.0.1:0", nil)
		if err != nil {
			return nil, err
		}
		if err := pc.Connect(nodeAddr); err != nil {
			pc.Close()
			return nil, err
		}
		clients = append(clients, pc)
		return pc, nil
	}
	for i, r := range market.Requests {
		pc, err := newClient(fmt.Sprintf("demo-c%d", i))
		if err != nil {
			return clients, err
		}
		if err := pc.SubmitRequest(r); err != nil {
			return clients, err
		}
	}
	for j, o := range market.Offers {
		pc, err := newClient(fmt.Sprintf("demo-p%d", j))
		if err != nil {
			return clients, err
		}
		if err := pc.SubmitOffer(o); err != nil {
			return clients, err
		}
	}
	return clients, nil
}
