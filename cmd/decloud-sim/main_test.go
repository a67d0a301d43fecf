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
// feedback-free ledger run is — runs end to end, and the removed -shards
// flag is an unknown-flag usage error.
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

	stdout.Reset()
	stderr.Reset()
	if code := run(append(args, "-shards", "4"), &stdout, &stderr); code != 2 {
		t.Fatalf("-shards 4: exit code = %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -shards") {
		t.Fatalf("stderr lacks the unknown-flag error: %q", stderr.String())
	}
}

// TestRunPipelineFlagExitsTwo: the simulator decides itself when a
// ledger run is pipelined, so -pipeline is an unknown flag, in either mode.
func TestRunPipelineFlagExitsTwo(t *testing.T) {
	for _, mode := range []string{"fast", "ledger"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-mode", mode, "-pipeline", "-rounds", "1", "-requests", "4"}, &stdout, &stderr); code != 2 {
			t.Fatalf("-mode %s -pipeline: exit code = %d, want 2; stderr: %s", mode, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined: -pipeline") {
			t.Fatalf("stderr lacks the unknown-flag error: %q", stderr.String())
		}
	}
}
