package devnet

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain doubles this test binary as the devnet node helper: when the
// orchestrator re-execs it with a role in the environment, MaybeRunRole
// takes over and never returns — so under `go test -race` every spawned
// miner and participant process runs race-instrumented too.
func TestMain(m *testing.M) {
	MaybeRunRole()
	os.Exit(m.Run())
}

// TestSoak3x8 is the end-to-end soak: 3 miner processes × 8 participant
// processes under background transport chaos, one participant churned,
// one partition window through mid-soak, and one verifier miner
// SIGKILLed and restarted with an empty chain. At teardown every
// surviving replica must be byte-identical and the conservation audit
// must account for every submitted order exactly once.
func TestSoak3x8(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process soak; skipped in -short")
	}
	const budget = 5 * time.Minute
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	before := runtime.NumGoroutine()

	dir := t.TempDir()
	sum, err := Run(ctx, Topology{
		Miners:       3,
		Participants: 8,
		Dir:          dir,
		Seed:         7,
		Rate:         8,
		Soak:         10 * time.Second,
		Churn:        true,
		Partition:    true,
		CrashRestart: true,
		// Race-instrumented children on a loaded 1-CPU runner can need
		// several reveal-retry rounds (~10s each) to drain the pool at
		// teardown; the default 60s stable-convergence window flakes.
		ConvergeTimeout: 3 * time.Minute,
	})
	if err != nil {
		// A starved runner and a broken protocol fail differently: the
		// wall-budget deadline and the convergence-window timeouts mean
		// the machine could not keep pace, not that the replicas hold
		// conflicting state. Post-stop divergence and conservation
		// violations never take these shapes and stay fatal.
		starved := errors.Is(err, context.DeadlineExceeded) ||
			strings.Contains(err.Error(), "no convergence within") ||
			strings.Contains(err.Error(), "never stabilized within")
		if starved && time.Since(start) > budget/2 {
			t.Skipf("runner too slow for the 3×8 soak (%.0fs elapsed): %v", time.Since(start).Seconds(), err)
		}
		t.Fatalf("devnet run: %v", err)
	}
	if sum.Convergence.Replicas != 3 {
		t.Fatalf("expected 3 agreeing replicas, got %d", sum.Convergence.Replicas)
	}
	if sum.Convergence.Height < 2 {
		t.Fatalf("expected ≥2 blocks, got %d", sum.Convergence.Height)
	}
	c := sum.Conservation
	if c.Submitted == 0 || c.Committed == 0 {
		t.Fatalf("no traffic flowed: %+v", *c)
	}
	if c.Matched == 0 {
		t.Fatalf("the market never cleared a trade: %+v", *c)
	}
	// CheckConservation enforces the equation internally; assert the
	// shape of the run anyway so a silently-degenerate topology (e.g.
	// everything uncommitted) fails loudly.
	if c.Committed < c.Submitted/3 {
		t.Fatalf("fewer than a third of submissions committed: %+v", *c)
	}
	t.Logf("soak: %d blocks, %d submitted = %d matched + %d unmatched + %d unrevealed + %d rejected + %d uncommitted",
		c.Blocks, c.Submitted, c.Matched, c.Unmatched, c.Unrevealed, c.Rejected, c.Uncommitted)

	// Every child is a separate process; the orchestrator itself must
	// leave nothing running (exec.Cmd's pipe readers exit with their
	// processes — give them a beat to unwind).
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

// TestMinerParticipantInProcess drives the role bodies directly — one
// miner and one participant in this process — exercising runMinerWith /
// runParticipantWith without the re-exec machinery.
func TestMinerParticipantInProcess(t *testing.T) {
	runMinerParticipantInProcess(t, false)
}

// TestMinerParticipantInProcessIncremental is the same topology with the
// miner clearing over the persistent order book, so the devnet role
// wiring for incremental mode is covered without a multi-process soak.
func TestMinerParticipantInProcessIncremental(t *testing.T) {
	runMinerParticipantInProcess(t, true)
}

func runMinerParticipantInProcess(t *testing.T, incremental bool) {
	dir := t.TempDir()
	mctx, mcancel := context.WithCancel(context.Background())
	defer mcancel()

	mcfg := MinerConfig{
		Name:        "tm0",
		Listen:      "127.0.0.1:0",
		Produce:     true,
		Incremental: incremental,
		ChainFile:   filepath.Join(dir, "tm0.chain"),
		ReadyFile:   filepath.Join(dir, "tm0.ready"),
		StatusFile:  filepath.Join(dir, "tm0.status"),
	}
	minerDone := make(chan error, 1)
	go func() { minerDone <- runMinerWith(mctx, mcfg) }()

	addr := waitReadyFile(t, mcfg.ReadyFile)

	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()
	pcfg := ParticipantConfig{
		Name:       "tp0",
		Peers:      []string{addr},
		Rate:       50,
		ReportFile: filepath.Join(dir, "tp0.report"),
		ReadyFile:  filepath.Join(dir, "tp0.ready"),
	}
	pcfg.Stream.Seed = 11
	pcfg.Stream.Clients = 1
	pcfg.Stream.EpochOrders = 8
	pcfg.Stream.IDPrefix = "tp0"
	partDone := make(chan error, 1)
	go func() { partDone <- runParticipantWith(pctx, pcfg) }()

	// Wait for the chain to commit at least one block, then stop both.
	deadline := time.Now().Add(45 * time.Second)
	for {
		if _, err := os.Stat(mcfg.ChainFile); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no block was ever saved")
		}
		time.Sleep(100 * time.Millisecond)
	}
	pcancel()
	if err := <-partDone; err != nil {
		t.Fatalf("participant: %v", err)
	}
	mcancel()
	if err := <-minerDone; err != nil {
		t.Fatalf("miner: %v", err)
	}

	// The artifacts of even this minimal topology must audit cleanly.
	if _, err := CheckConvergence([]string{mcfg.ChainFile}, 1); err != nil {
		t.Fatalf("convergence: %v", err)
	}
	res, err := CheckConservation(mcfg.ChainFile, []string{pcfg.ReportFile})
	if err != nil {
		t.Fatalf("conservation: %v", err)
	}
	if res.Committed == 0 {
		t.Fatalf("nothing committed: %+v", *res)
	}
}

func waitReadyFile(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
			return string(data[:len(data)-1])
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("ready file %s never appeared", path)
	return ""
}
