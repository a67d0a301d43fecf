package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
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

func TestRunBadPipelineDepthExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-pipeline-rounds", "0"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
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

// TestDemoProducesAtBothDepths drives the one production path at depth 1
// (a sequential round per tick) and depth 2 (a pipelined pair per tick)
// with the -demo workload: blocks commit with every bid revealed and
// trades clearing, and the demo workload rides one participant endpoint
// for the process — the goroutine count stays flat from round to round
// (it grew by a listener, an accept loop and a connection per order per
// round when every order got its own client).
func TestDemoProducesAtBothDepths(t *testing.T) {
	for _, depth := range []int{1, 2} {
		depth := depth
		t.Run(fmt.Sprintf("depth-%d", depth), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var stdout, stderr lockedBuffer
			done := make(chan int, 1)
			go func() {
				done <- run(ctx, []string{
					"-listen", "127.0.0.1:0", "-difficulty", "4", "-produce", "50ms",
					"-demo", "6", "-pipeline-rounds", fmt.Sprint(depth),
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
}
