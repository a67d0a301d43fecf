// Command decloud-devnet runs a multi-process DeCloud devnet on one
// machine: it spawns N miner and M participant processes (re-execs of
// this binary), soaks them under churn, a partition, and a crash-restart,
// then audits chain convergence and order conservation at teardown.
//
//	decloud-devnet -miners 3 -participants 8 -soak 10s -dir /tmp/devnet
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"decloud/internal/devnet"
)

func main() {
	devnet.MaybeRunRole() // child processes never reach the flag parser
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("decloud-devnet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	miners := fs.Int("miners", 3, "miner processes (first one produces; per-metro count with -metros)")
	parts := fs.Int("participants", 8, "participant processes (round-robin over metros with -metros)")
	metros := fs.Int("metros", 0, "federate over this many metro exchanges (implies -incremental)")
	maxHops := fs.Int("max-hops", 0, "spill hop budget per request beyond its home metro (0 = the federation default)")
	dir := fs.String("dir", "", "artifact directory (default: a temp dir)")
	seed := fs.Int64("seed", 1, "fault-plan and workload seed")
	rate := fs.Float64("rate", 10, "orders/second per participant")
	soak := fs.Duration("soak", 10*time.Second, "fault/churn phase duration")
	churn := fs.Bool("churn", true, "kill and replace one participant mid-soak")
	partition := fs.Bool("partition", true, "partition the network through mid-soak")
	crash := fs.Bool("crash", true, "SIGKILL and restart one verifier miner mid-soak")
	converge := fs.Duration("converge", 60*time.Second, "post-soak convergence timeout")
	incremental := fs.Bool("incremental", false, "run miners over a continuous order book (carry unmatched orders across blocks)")
	out := fs.String("out", "", "write the run summary as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *dir == "" {
		tmp, err := os.MkdirTemp("", "decloud-devnet-*")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		*dir = tmp
	}
	devnet.Logf = func(format string, a ...any) {
		fmt.Fprintf(stdout, format+"\n", a...)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	top := devnet.Topology{
		Miners:          *miners,
		Participants:    *parts,
		Metros:          *metros,
		MaxHops:         *maxHops,
		Dir:             *dir,
		Seed:            *seed,
		Rate:            *rate,
		Soak:            *soak,
		Churn:           *churn,
		Partition:       *partition,
		CrashRestart:    *crash,
		Incremental:     *incremental,
		ConvergeTimeout: *converge,
	}
	fmt.Fprintf(stdout, "devnet: %d miners × %d participants, soak %s, artifacts in %s\n",
		*miners, *parts, *soak, *dir)
	sum, err := devnet.Run(ctx, top)
	if err != nil {
		fmt.Fprintf(stderr, "devnet: FAIL: %v\n", err)
		return 1
	}
	if len(sum.MetroConvergence) > 0 {
		for m, conv := range sum.MetroConvergence {
			c := sum.MetroConservation[m]
			fmt.Fprintf(stdout, "devnet: metro %d: height %d across %d replicas; %d submitted, %d matched, %d uncommitted (%d blocks)\n",
				m, conv.Height, conv.Replicas, c.Submitted, c.Matched, c.Uncommitted, c.Blocks)
		}
		fmt.Fprintf(stdout, "devnet: cross-metro: %d roots settled, %d via spill, 0 double-settles\n",
			sum.CrossMetro.SettledRoots, sum.CrossMetro.SpillSettled)
	} else {
		fmt.Fprintf(stdout, "devnet: converged at height %d across %d replicas (chain %s)\n",
			sum.Convergence.Height, sum.Convergence.Replicas, sum.Convergence.HeadHash[:12])
		c := sum.Conservation
		fmt.Fprintf(stdout, "devnet: conservation: %d submitted = %d matched + %d unmatched + %d unrevealed + %d rejected + %d uncommitted (%d blocks)\n",
			c.Submitted, c.Matched, c.Unmatched, c.Unrevealed, c.Rejected, c.Uncommitted, c.Blocks)
	}
	if *out != "" {
		data, _ := json.MarshalIndent(sum, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "devnet: summary written to %s\n", *out)
	}
	return 0
}
