package devnet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/metro"
	"decloud/internal/p2p"
	"decloud/internal/workload"
)

// TestSpillForwardNeverRevisits drives the producers' spill forwarder
// hop by hop over one in-process market node per metro, for every home
// metro of 2-, 3- and 4-metro federations: a carried-out request never
// reaches a metro it has already visited, and it expires once it has
// taken metro.DefaultMaxHops hops or run out of unvisited metros.
func TestSpillForwardNeverRevisits(t *testing.T) {
	for _, metros := range []int{2, 3, 4} {
		for home := 0; home < metros; home++ {
			t.Run(fmt.Sprintf("M%d/home%d", metros, home), func(t *testing.T) {
				checkSpillPath(t, metros, home)
			})
		}
	}
}

func checkSpillPath(t *testing.T, metros, home int) {
	dir := t.TempDir()
	top, err := Topology{Miners: 1, Participants: metros, Metros: metros, Dir: dir}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	c := &Cluster{top: top}
	nodes := make([]*p2p.MarketNode, metros)
	for m := range nodes {
		mn, err := p2p.NewMarketNode(fmt.Sprintf("m%d", m), "127.0.0.1:0", difficulty, auction.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mn.Close() })
		if err := writeReady(filepath.Join(dir, fmt.Sprintf("m%d.ready", m)), mn.Addr()); err != nil {
			t.Fatal(err)
		}
		nodes[m] = mn
	}
	pooled := func() []int {
		out := make([]int, metros)
		for m, mn := range nodes {
			out[m] = mn.MempoolSize()
		}
		return out
	}

	stream := workload.NewStream(workload.StreamConfig{Seed: 1, Clients: 1, EpochOrders: 4})
	var r *bidding.Request
	for r == nil {
		r = stream.Next().Request
	}
	path := []int{home}
	for at := home; ; {
		cfg := c.minerConfig(at)
		f, err := newSpillForwarder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := pooled()
		f.Forward([]*bidding.Request{r})
		id := lastReported(t, cfg.SpillReport)
		if id == "" {
			f.Close()
			break // expired here
		}
		to := -1
		for deadline := time.Now().Add(10 * time.Second); to < 0 && time.Now().Before(deadline); {
			for m, n := range pooled() {
				if n > before[m] {
					to = m
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		f.Close()
		if to < 0 {
			t.Fatalf("spill %s from metro %d reached no node", id, at)
		}
		for _, m := range path {
			if m == to {
				t.Fatalf("spill %s from metro %d revisits metro %d (path %v)", id, at, to, path)
			}
		}
		if SpillRoot(id) != SpillRoot(string(r.ID)) {
			t.Fatalf("spill %s lost its root %s", id, SpillRoot(string(r.ID)))
		}
		path = append(path, to)
		rr := *r
		rr.ID = bidding.OrderID(id)
		r, at = &rr, to
	}
	if hops, want := len(path)-1, min(metro.DefaultMaxHops, metros-1); hops != want {
		t.Fatalf("request took %d hops (path %v), want %d", hops, path, want)
	}
}

// lastReported returns the order of a spill report's last line, or ""
// when the forwarder reported nothing since the previous call (the
// report is removed after each read).
func lastReported(t *testing.T, report string) string {
	t.Helper()
	data, err := os.ReadFile(report)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if err := os.Remove(report); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[len(lines)-1] == "" {
		return ""
	}
	var line ReportLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	return line.Order
}
