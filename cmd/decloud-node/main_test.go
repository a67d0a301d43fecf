package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"decloud/internal/auction"
	"decloud/internal/miner"
	"decloud/internal/p2p"
	"decloud/internal/workload"
)

// The binary must exit non-zero with a clear error — not panic — when
// observability flags point at unusable resources.

func TestRunObsAddrUnbindable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-listen", "127.0.0.1:0", "-obs-addr", ln.Addr().String()}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "obs: listen") {
		t.Fatalf("stderr lacks a clear listen error: %q", stderr.String())
	}
}

func TestRunTraceOutUnwritable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "trace.jsonl")
	code := run(context.Background(), []string{"-listen", "127.0.0.1:0", "-trace-out", path}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "obs: open trace file") {
		t.Fatalf("stderr lacks a clear trace-file error: %q", stderr.String())
	}
}

func TestRunBadPeerExitsOne(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-listen", "127.0.0.1:0", "-peers", "127.0.0.1:1"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
}

func TestRunBadFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestRunBadPipelineDepthExitsTwo: the node produces one round per
// interval, and -pipeline-rounds is gone: any value is an unknown flag.
func TestRunBadPipelineDepthExitsTwo(t *testing.T) {
	for _, depth := range []string{"0", "1", "3"} {
		t.Run("pipeline-rounds="+depth, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), []string{"-pipeline-rounds", depth}, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code = %d, want 2", code)
			}
		})
	}
}

// lockedBuffer lets the test read the node's output while it runs.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDemoProducesAtBothDepths drives the node's round, one per tick,
// with the -demo workload: blocks commit with every bid revealed and
// trades clearing, and the demo workload rides one participant endpoint
// for the process — the goroutine count stays flat from round to round
// (it grew by a listener, an accept loop and a connection per order per
// round when every order got its own client). Its name and its depth-1
// run date from when a tick could produce a pipelined batch.
func TestDemoProducesAtBothDepths(t *testing.T) {
	t.Run("depth-1", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var stdout, stderr lockedBuffer
		done := make(chan int, 1)
		go func() {
			done <- run(ctx, []string{
				"-listen", "127.0.0.1:0", "-difficulty", "4", "-produce", "50ms",
				"-demo", "6",
			}, &stdout, &stderr)
		}()
		blocks := func() int { return strings.Count(stdout.String(), "block ") }
		waitBlocks := func(n int) {
			t.Helper()
			deadline := time.Now().Add(30 * time.Second)
			for blocks() < n {
				if time.Now().After(deadline) {
					t.Fatalf("%d blocks after 30s, want %d\nstdout: %s\nstderr: %s", blocks(), n, stdout.String(), stderr.String())
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		waitBlocks(2)
		before := runtime.NumGoroutine()
		waitBlocks(6)
		if grew := runtime.NumGoroutine() - before; grew > 8 {
			t.Fatalf("goroutines grew by %d over four more rounds: the demo workload leaks endpoints", grew)
		}
		// A round cut short by the shutdown itself may still complain.
		diagnostics := stderr.String()
		cancel()
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("exit code = %d, want 0; stderr: %s", code, stderr.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatal("node did not exit after its context ended")
		}
		out := stdout.String()
		if strings.Contains(out, "block 0: 0 trades") || !strings.Contains(out, ", 0 unrevealed") {
			t.Fatalf("demo rounds cleared nothing or left bids unrevealed:\n%s", out)
		}
		if diagnostics != "" {
			t.Fatalf("unexpected diagnostics: %s", diagnostics)
		}
	})
}

// TestDemoOrdersEnterTheBook: every demo round's generator names its
// orders alike (r0000…, o0000…). On an incremental node a carried order
// keeps its name live, and the book skips a new order of a live name: it
// is on the chain, but never inserted, rejected, matched or carried. Over
// three demo rounds the book must insert every bid the demo submitted.
func TestDemoOrdersEnterTheBook(t *testing.T) {
	cfg := auction.DefaultConfig()
	cfg.Incremental = true
	node, err := p2p.NewMarketNode("demo-book", "127.0.0.1:0", 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	demo := &demoClient{nodeAddr: node.Addr(), requests: 20}
	defer demo.close()
	committed := 0
	for round := 0; round < 3; round++ {
		if err := demo.submit(round); err != nil {
			t.Fatal(err)
		}
		submitted, _, _ := demo.lc.Counts()
		deadline := time.Now().Add(10 * time.Second)
		for int64(node.MempoolSize()+committed) < submitted {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d bids pooled, want %d", round, node.MempoolSize(), submitted-int64(committed))
			}
			time.Sleep(5 * time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		sum, err := node.ProduceBlockOpts(ctx, p2p.RoundConfig{RevealWindow: 5 * time.Second})
		cancel()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if sum.Unrevealed != 0 {
			t.Fatalf("round %d left %d bids unrevealed", round, sum.Unrevealed)
		}
		committed += len(sum.Block.Bids)
	}
	submitted, _, _ := demo.lc.Counts()
	st := node.Book().Stats()
	if got := st.InsertedRequests + st.InsertedOffers; int64(got) != submitted || committed != got {
		t.Fatalf("book inserted %d orders (%d rejected), the chain holds %d, the demo submitted %d",
			got, st.RejectedRequests+st.RejectedOffers, committed, submitted)
	}
}

// runUntilBlocks runs a producing node until its stdout shows n more
// block lines, stops it, and returns its stdout. The node must exit 0
// with nothing on stderr before the stop.
func runUntilBlocks(t *testing.T, n int, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr lockedBuffer
	done := make(chan int, 1)
	go func() { done <- run(ctx, args, &stdout, &stderr) }()
	deadline := time.Now().Add(30 * time.Second)
	for strings.Count(stdout.String(), "\nblock ") < n {
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d blocks after 30s\nstdout: %s\nstderr: %s", n, stdout.String(), stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	diagnostics := stderr.String()
	cancel()
	if code := <-done; code != 0 || diagnostics != "" {
		t.Fatalf("exit code %d, diagnostics %q", code, diagnostics)
	}
	return stdout.String()
}

// TestChainFileSurvivesRestart: -chain FILE is read back. A node stopped
// after two or more blocks and restarted on the same file reloads them
// through the node's own intake and produces its next block on top; a
// node that started from height 0 again would overwrite the file with a
// one-block chain. Under -incremental the reload rebuilds the order book
// too: the whole file — blocks from before and after the restart — must
// replay on a fresh incremental replica, which it would not had the
// restarted node cleared its next block over an empty book while orders
// carried over from the first run were still live.
func TestChainFileSurvivesRestart(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", incremental), func(t *testing.T) {
			file := filepath.Join(t.TempDir(), "chain.jsonl")
			args := []string{
				"-listen", "127.0.0.1:0", "-difficulty", "4", "-produce", "50ms", "-demo", "6",
				"-chain", file, fmt.Sprintf("-incremental=%v", incremental),
			}
			first := runUntilBlocks(t, 2, args...)
			kept := strings.Count(first, "\nblock ")
			if strings.Contains(first, "loaded ") {
				t.Fatalf("first start loaded a chain that did not exist:\n%s", first)
			}

			if incremental {
				if st := replay(t, file, true).Book().Stats(); st.LiveRequests+st.LiveOffers == 0 {
					t.Fatal("no order is live at the restart: the replay below proves nothing about the book")
				}
			}

			second := runUntilBlocks(t, 1, args...)
			if want := fmt.Sprintf("loaded %d blocks from %s\n", kept, file); !strings.Contains(second, want) {
				t.Fatalf("restart did not report %q:\n%s", want, second)
			}
			if want := fmt.Sprintf("\nblock %d: ", kept); !strings.Contains(second, want) || strings.Contains(second, "\nblock 0: ") {
				t.Fatalf("restarted node did not continue at height %d:\n%s", kept, second)
			}

			if got := replay(t, file, incremental).Chain().Len(); got <= kept {
				t.Fatalf("file holds %d blocks, want more than the %d of the first run", got, kept)
			}
		})
	}
}

// replay loads a chain file into a fresh replica, which must accept it.
func replay(t *testing.T, file string, incremental bool) *p2p.MarketNode {
	t.Helper()
	cfg := auction.DefaultConfig()
	cfg.Incremental = incremental
	replica, err := p2p.NewMarketNode("replica", "127.0.0.1:0", 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })
	if err := replica.LoadChain(file); err != nil {
		t.Fatalf("%s does not replay: %v", file, err)
	}
	return replica
}

// TestUnlinkableChainFileExitsOne: a chain file whose first block is gone
// does not load, and the error names the height that failed.
func TestUnlinkableChainFileExitsOne(t *testing.T) {
	file := filepath.Join(t.TempDir(), "chain.jsonl")
	runUntilBlocks(t, 2, "-listen", "127.0.0.1:0", "-difficulty", "4", "-produce", "50ms", "-demo", "6", "-chain", file)
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, data[bytes.IndexByte(data, '\n')+1:], 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-listen", "127.0.0.1:0", "-chain", file}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "load block 1") {
		t.Fatalf("exit code %d, stderr %q; want 1 and the failing height", code, stderr.String())
	}
}

// TestVerifyOnlyNodeWritesItsChainFile: -chain FILE is the node's job, not
// the producer loop's. A verify-only node accepts two blocks from a peer;
// once stopped, FILE holds both.
func TestVerifyOnlyNodeWritesItsChainFile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "chain.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr lockedBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-name", "v", "-listen", "127.0.0.1:0", "-difficulty", "4", "-chain", file}, &stdout, &stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(stdout.String(), "verify-only mode") {
		if time.Now().After(deadline) {
			t.Fatalf("the node never came up\nstdout: %s\nstderr: %s", stdout.String(), stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, addr, _ := strings.Cut(stdout.String(), "v listening on ")
	addr, _, _ = strings.Cut(addr, "\n")

	producer, err := p2p.NewMarketNode("p", "127.0.0.1:0", 4, auction.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	if err := producer.Connect(addr); err != nil {
		t.Fatal(err)
	}
	part, err := miner.NewParticipant(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range workload.Generate(workload.Config{Seed: 1, Requests: 2}).Requests {
		bid, err := part.SubmitRequest(r)
		if err == nil {
			err = producer.SubmitBid(bid)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Quorum 1: the round ends once the verify-only node appended it.
		rctx, rcancel := context.WithTimeout(ctx, 10*time.Second)
		_, err = producer.ProduceBlockOpts(rctx, p2p.RoundConfig{Quorum: 1, RevealWindow: 20 * time.Millisecond})
		rcancel()
		if err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr.String())
	}
	if got := replay(t, file, false).Chain().Len(); got != 2 {
		t.Fatalf("%s holds %d blocks, want the 2 the node accepted", file, got)
	}
}
