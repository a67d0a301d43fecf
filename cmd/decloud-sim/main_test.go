package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The binary must exit non-zero with a clear error — not panic — when
// observability flags point at unusable resources.

func TestRunObsAddrUnbindable(t *testing.T) {
	// Grab a port and hold it so the sim cannot bind it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var stdout, stderr bytes.Buffer
	code := run([]string{"-rounds", "1", "-requests", "4", "-obs-addr", ln.Addr().String()}, &stdout, &stderr)
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
	code := run([]string{"-rounds", "1", "-requests", "4", "-trace-out", path}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "obs: open trace file") {
		t.Fatalf("stderr lacks a clear trace-file error: %q", stderr.String())
	}
}

// TestFastStdoutGolden pins what the command prints for a fast-mode run,
// byte for byte, against testdata/fast_stdout.golden. A refactor must
// leave the file untouched; an intentional change to the output
// regenerates it with:
//
//	GOLDEN_UPDATE=1 go test ./cmd/decloud-sim -run TestFastStdoutGolden
func TestFastStdoutGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mode", "fast", "-rounds", "4", "-seed", "7"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	path := filepath.Join("testdata", "fast_stdout.golden")
	if os.Getenv("GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("stdout drifted from %s:\n got:\n%s\nwant:\n%s", path, stdout.Bytes(), want)
	}
}

func TestRunUnknownModeExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mode", "bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestRunWithObsAndTrace(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-rounds", "2", "-requests", "8", "-seed", "7",
		"-obs-addr", "127.0.0.1:0", "-trace-out", trace,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "observability on http://") {
		t.Fatalf("stdout lacks the obs endpoint banner: %q", stdout.String())
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1
	if lines != 2 {
		t.Fatalf("trace file has %d lines, want one per round (2):\n%s", lines, data)
	}
}

// TestRunShardedPipelinedLedger: the pipelined ledger — what a
// feedback-free ledger run is — runs end to end. (The removed -shards
// flag is refused in TestRunPipelineFlagExitsTwo.)
func TestRunShardedPipelinedLedger(t *testing.T) {
	args := []string{
		"-mode", "ledger", "-rounds", "2", "-requests", "10",
		"-difficulty", "6", "-seed", "3",
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "total welfare") {
		t.Fatalf("stdout lacks the summary line: %q", stdout.String())
	}
}

// TestRunPipelineFlagExitsTwo: every removed flag is an unknown-flag
// usage error, in either mode. The simulator decides itself when a
// ledger run is pipelined (-pipeline), the order book is not sharded
// (-shards), the two-stage futures market's reservation stage was
// retired (the six futures flags), unmatched orders carry only in the
// order book (-resubmit, -max-resubmits), and capacity follows the
// paper's aggregate resource·time rule (-exact).
func TestRunPipelineFlagExitsTwo(t *testing.T) {
	for _, removed := range [][]string{
		{"-pipeline"},
		{"-shards", "4"},
		{"-futures-split", "0.5"},
		{"-overbook", "1.5"},
		{"-penalty-rate", "0.2"},
		{"-reserve-horizon", "1"},
		{"-demand-shock", "0.3"},
		{"-supply-shock", "0.2"},
		{"-resubmit"},
		{"-max-resubmits", "2"},
		{"-exact"},
	} {
		for _, mode := range []string{"fast", "ledger"} {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-mode", mode, "-rounds", "1", "-requests", "4"}, removed...)
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("-mode %s %s: exit code = %d, want 2; stderr: %s", mode, removed[0], code, stderr.String())
			}
			if want := "flag provided but not defined: " + removed[0]; !strings.Contains(stderr.String(), want) {
				t.Fatalf("-mode %s %s: stderr lacks %q: %q", mode, removed[0], want, stderr.String())
			}
		}
	}
}
