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
// m0 generates a demo workload (20 requests per round, sealed by one
// in-process participant endpoint), mines blocks every 5 s, and m1/m2
// verify them; each interval produces one round. -chain FILE persists
// the replica: the node, producing or not, saves it after every block and
// at exit, and, started on an existing FILE, re-verifies and reloads it —
// order book included under -incremental — before it joins the network; a
// file that does not verify is exit 1.
//
// With -obs-addr the node serves live metrics (Prometheus text at
// /metrics, JSON at /vars, pprof under /debug/pprof/); -trace-out
// appends one JSON line per produced round (phase timeline) to FILE.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/miner"
	"decloud/internal/obs"
	"decloud/internal/p2p"
	"decloud/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the node until ctx ends (main: SIGINT/SIGTERM).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("decloud-node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("name", "node", "node name")
	listen := fs.String("listen", "127.0.0.1:0", "listen address")
	peers := fs.String("peers", "", "comma-separated peer addresses to join")
	difficulty := fs.Int("difficulty", 12, "PoW difficulty in leading zero bits")
	produce := fs.Duration("produce", 0, "produce blocks every interval (0 = verify only)")
	quorum := fs.Int("quorum", 0, "OK votes required per produced block")
	revealWindow := fs.Duration("reveal-window", 3*time.Second, "how long to wait for key reveals")
	revealRetries := fs.Int("reveal-retries", 2, "preamble re-broadcasts when reveals are missing at the deadline")
	incremental := fs.Bool("incremental", false, "clear over a persistent order book, carrying unmatched orders across blocks")
	demoRequests := fs.Int("demo", 0, "submit a demo workload of N requests before each round")
	chainFile := fs.String("chain", "", "persist the chain to this file after each block and at exit; reloaded at start-up")
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
	if *chainFile != "" {
		if err := node.LoadChain(*chainFile); err != nil {
			fmt.Fprintf(stderr, "decloud-node: %v\n", err)
			return 1
		}
		if n := node.Chain().Len(); n > 0 {
			fmt.Fprintf(stdout, "loaded %d blocks from %s\n", n, *chainFile)
		}
	}

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

	if *produce <= 0 {
		fmt.Fprintln(stdout, "verify-only mode; ctrl-c to exit")
		<-ctx.Done()
		return 0
	}

	demo := &demoClient{nodeAddr: node.Addr(), requests: *demoRequests}
	defer demo.close()

	ticker := time.NewTicker(*produce)
	defer ticker.Stop()
	rcfg := p2p.RoundConfig{
		Quorum:        *quorum,
		RevealWindow:  *revealWindow,
		RevealRetries: *revealRetries,
	}
	round := node.Chain().Len() // a restarted node continues the demo workload
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
		err := demo.submit(round)
		round++
		if err != nil {
			fmt.Fprintf(stderr, "demo workload: %v\n", err)
			continue
		}
		roundCtx, cancel := context.WithTimeout(ctx, *produce+10*time.Second)
		sum, err := node.ProduceBlockOpts(roundCtx, rcfg)
		cancel()
		switch {
		case errors.Is(err, miner.ErrEmptyMempool):
			fmt.Fprintln(stdout, "mempool empty; skipping round")
		case err != nil:
			fmt.Fprintf(stderr, "round failed: %v\n", err)
		default:
			fmt.Fprintf(stdout, "block %d: %d trades, %d ok votes, %d bad, %d unrevealed\n",
				sum.Block.Preamble.Height, len(sum.Outcome.Matches), sum.OKVotes, sum.BadVotes, sum.Unrevealed)
		}
	}
}

// demoClient submits the -demo workload through the node: one participant
// endpoint for the process, one identity per order of a round, both
// reused every round (the endpoint releases a bid's key once its block
// lands).
type demoClient struct {
	nodeAddr string
	requests int
	lc       *p2p.LoadClient // dialed by the first submit
}

// submit seals and broadcasts one generated market (none without -demo).
// Every round's generator names its orders alike, so each ID is tagged
// with the round: a carried order of an earlier round keeps its name live
// in an incremental book, which would refuse a new order of that name.
func (d *demoClient) submit(round int) error {
	if d.requests <= 0 {
		return nil
	}
	market := workload.Generate(workload.Config{Seed: int64(round) + 1, Requests: d.requests})
	tag := func(id bidding.OrderID) bidding.OrderID { return bidding.OrderID(fmt.Sprintf("%s@r%d", id, round)) }
	for _, r := range market.Requests {
		r.ID = tag(r.ID)
	}
	for _, o := range market.Offers {
		o.ID = tag(o.ID)
	}
	if d.lc == nil {
		ids := make([]io.Reader, len(market.Requests)+len(market.Offers))
		lc, err := p2p.NewLoadClient("demo", "127.0.0.1:0", ids, nil)
		if err != nil {
			return err
		}
		if err := lc.Connect(d.nodeAddr); err != nil {
			lc.Close()
			return err
		}
		d.lc = lc
	}
	for i, r := range market.Requests {
		if _, err := d.lc.SubmitRequest(i, r); err != nil {
			return err
		}
	}
	for j, o := range market.Offers {
		if _, err := d.lc.SubmitOffer(len(market.Requests)+j, o); err != nil {
			return err
		}
	}
	time.Sleep(200 * time.Millisecond) // give the gossip a moment to spread the bids
	return nil
}

func (d *demoClient) close() {
	if d.lc != nil {
		d.lc.Close()
	}
}
