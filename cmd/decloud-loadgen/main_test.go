package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"decloud/internal/auction"
	"decloud/internal/loadgen"
	"decloud/internal/p2p"
)

// TestRunRefusesBadFlags: an unknown flag — including each of the
// reservation-desk flags the command no longer has — and a missing -addr
// exit 2 before anything is dialed.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-addr", "127.0.0.1:1", "-futures-split", "0.5"},
		{"-addr", "127.0.0.1:1", "-overbook", "1.5"},
		{"-addr", "127.0.0.1:1", "-penalty-rate", "0.2"},
		{"-addr", "127.0.0.1:1", "-reserve-horizon", "1"},
		{"-addr", "127.0.0.1:1", "-demand-shock", "0.3"},
		{"-addr", "127.0.0.1:1", "-supply-shock", "0.3"},
		{"-orders", "10"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v: exit code = %d, want 2; stderr: %s", args, code, stderr.String())
		}
	}
}

// TestRunWritesReport: a short run against an in-process producing
// market node commits every order and writes its JSON report.
func TestRunWritesReport(t *testing.T) {
	const orders = 64
	mn, err := p2p.NewMarketNode("cli-m0", "127.0.0.1:0", 8, auction.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	t.Cleanup(func() {
		cancel()
		<-done
		mn.Close()
	})
	go func() {
		defer close(done)
		round := p2p.RoundConfig{RevealWindow: 500 * time.Millisecond, RevealRetries: 2}
		for ctx.Err() == nil {
			if mn.MempoolSize() < orders {
				time.Sleep(20 * time.Millisecond)
				continue
			}
			if _, err := mn.ProduceBlockOpts(ctx, round); err != nil && ctx.Err() == nil {
				t.Logf("produce: %v", err)
			}
		}
	}()

	out := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", mn.Addr(), "-orders", fmt.Sprint(orders), "-workers", "2", "-seed", "3",
		"-drain", "30s", "-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d; stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != orders || rep.Committed != orders || rep.Errors != 0 {
		t.Fatalf("report %+v, want %d submitted and committed, no errors", rep, orders)
	}
}
