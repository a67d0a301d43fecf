package p2p

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/miner"
	"decloud/internal/obs"
	"decloud/internal/resource"
	"decloud/internal/sealed"
)

// TestConnLimitInbound: a node at MaxConns refuses further inbound
// connections — the dialer sees its connection die, the listener's peer
// count holds, and the rejection is counted.
func TestConnLimitInbound(t *testing.T) {
	srv, err := Listen("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := obs.NewRegistry()
	m := obs.NewNetMetrics(reg)
	srv.SetObs(m)
	srv.SetLimits(Limits{MaxConns: 1})

	a, err := Listen("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Connect(srv.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first peer", func() bool { return srv.PeerCount() == 1 })

	b, err := Listen("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Connect(srv.Addr()); err != nil {
		t.Fatal(err) // dial succeeds; the listener closes it after accept
	}
	waitFor(t, "rejection counted", func() bool { return m.Rejected.Value() == 1 })
	if srv.PeerCount() != 1 {
		t.Fatalf("peer count %d, want 1", srv.PeerCount())
	}
	// The survivor still gossips.
	got := make(chan struct{}, 1)
	a.Handle("ping", func(Message) { got <- struct{}{} })
	if err := srv.Broadcast("ping", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("surviving peer stopped receiving after a rejection")
	}
}

// TestConnLimitOutbound: Connect refuses to exceed the local cap.
func TestConnLimitOutbound(t *testing.T) {
	a, err := Listen("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetLimits(Limits{MaxConns: 1})
	if got := a.Limits().MaxConns; got != 1 {
		t.Fatalf("Limits().MaxConns = %d, want 1", got)
	}
	b, err := Listen("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := Listen("c", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Connect(c.Addr()); !errors.Is(err, ErrConnLimit) {
		t.Fatalf("second Connect err = %v, want ErrConnLimit", err)
	}
}

// TestFrameLimitDropsPeer: a peer whose frame is over the cap is
// disconnected and counted, and the oversize payload is never delivered —
// whether it sends the whole frame or a header claiming cap+1 bytes and
// nothing after it: the header alone is refused.
func TestFrameLimitDropsPeer(t *testing.T) {
	const limit = 4 * 1024
	server := func(t *testing.T) (*Node, *obs.NetMetrics, chan int) {
		srv, err := Listen("srv", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		m := obs.NewNetMetrics(obs.NewRegistry())
		srv.SetObs(m)
		srv.SetLimits(Limits{MaxFrameBytes: limit})
		delivered := make(chan int, 4)
		srv.Handle("blob", func(msg Message) { delivered <- len(msg.Payload) })
		return srv, m, delivered
	}
	dropped := func(t *testing.T, srv *Node, m *obs.NetMetrics, delivered chan int) {
		t.Helper()
		waitFor(t, "oversize drop", func() bool { return m.Oversize.Value() == 1 })
		waitFor(t, "peer disconnected", func() bool { return srv.PeerCount() == 0 })
		select {
		case n := <-delivered:
			t.Fatalf("oversize payload of %d bytes was delivered", n)
		default:
		}
	}

	t.Run("whole frame", func(t *testing.T) {
		srv, m, delivered := server(t)
		peer, err := Listen("peer", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		if err := peer.Connect(srv.Addr()); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "peer connected", func() bool { return srv.PeerCount() == 1 })
		if err := peer.Broadcast("blob", bytes.Repeat([]byte("x"), 64*1024)); err != nil {
			t.Fatal(err)
		}
		dropped(t, srv, m, delivered)
	})

	t.Run("header alone", func(t *testing.T) {
		srv, m, delivered := server(t)
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		waitFor(t, "peer connected", func() bool { return srv.PeerCount() == 1 })
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], limit+1)
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		dropped(t, srv, m, delivered)
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(hdr[:]); err != io.EOF {
			t.Fatalf("the dropped peer reads %v, want EOF", err)
		}
	})
}

// TestMempoolLimit: bids beyond the cap are refused at SubmitBid and at
// the gossip handler, counted, and never occupy pool slots.
func TestMempoolLimit(t *testing.T) {
	mn, err := NewMarketNode("m", "127.0.0.1:0", testDifficulty, auction.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	reg := obs.NewRegistry()
	m := obs.NewNetMetrics(reg)
	mn.SetNetObs(m)
	mn.SetMempoolLimit(2)
	if got := mn.PoolLimit(); got != 2 {
		t.Fatalf("PoolLimit() = %d, want 2", got)
	}

	part, err := miner.NewParticipant(newDetReader("mempool-limit"))
	if err != nil {
		t.Fatal(err)
	}
	bids := make([]*sealed.Bid, 3)
	for i := range bids {
		b, err := part.SubmitRequest(&bidding.Request{
			ID:        bidding.OrderID(fmt.Sprintf("r-%d", i)),
			Resources: resource.Vector{resource.CPU: 2, resource.RAM: 8},
			Start:     0, End: 100, Duration: 100,
			Bid: float64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		bids[i] = b
	}
	if err := mn.SubmitBid(bids[0]); err != nil {
		t.Fatal(err)
	}
	if err := mn.SubmitBid(bids[1]); err != nil {
		t.Fatal(err)
	}
	// Duplicate of an admitted bid is absorbed, not refused.
	if err := mn.SubmitBid(bids[1]); err != nil {
		t.Fatalf("duplicate submit err = %v", err)
	}
	if err := mn.SubmitBid(bids[2]); !errors.Is(err, miner.ErrPoolFull) {
		t.Fatalf("over-limit submit err = %v, want ErrPoolFull", err)
	}
	if got := mn.MempoolSize(); got != 2 {
		t.Fatalf("mempool size %d, want 2", got)
	}
	if got := m.PoolDropped.Value(); got != 1 {
		t.Fatalf("PoolDropped = %d, want 1", got)
	}
	// A refused bid passed the signature check but is not admitted: the
	// set holds what the pool holds.
	if got := mn.pool.Verified().Len(); got != 2 {
		t.Fatalf("%d bids admitted, want the 2 pooled", got)
	}
}

// TestDoorRefusesBeforeItChecks: the refusals that cost nothing come
// before the signature check at the gossip handler too — a duplicate
// frame of a pooled bid and a bid offered to a full pool buy zero
// signature checks, so neither a replay nor a flood against a full pool
// is paid for in ed25519.
func TestDoorRefusesBeforeItChecks(t *testing.T) {
	mn, reg := observedNode(t, "door")
	netReg := obs.NewRegistry()
	dropped := obs.NewNetMetrics(netReg)
	mn.SetNetObs(dropped)
	part, err := miner.NewParticipant(newDetReader("door"))
	if err != nil {
		t.Fatal(err)
	}
	frame := func(id string) Message {
		t.Helper()
		bid, err := part.SubmitRequest(testRequest(id, 3))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := sealed.AppendBid(nil, bid)
		if err != nil {
			t.Fatal(err)
		}
		return Message{Type: msgBid, Payload: payload}
	}
	first, second := frame("r-0"), frame("r-1")
	mn.onBid(first)
	if got := reg.CounterValue(sigChecked); got != 1 || mn.MempoolSize() != 1 {
		t.Fatalf("first frame: %d checks, %d pooled", got, mn.MempoolSize())
	}
	mn.onBid(first) // a duplicate frame of a pooled bid
	mn.SetMempoolLimit(1)
	mn.onBid(second) // a bid offered to a full pool
	if got := reg.CounterValue(sigChecked); got != 1 {
		t.Fatalf("%d signature checks after a duplicate frame and a full-pool refusal, want the first bid's 1", got)
	}
	if got := dropped.PoolDropped.Value(); got != 1 {
		t.Fatalf("PoolDropped = %d, want 1", got)
	}
	if got, trusted := mn.MempoolSize(), mn.pool.Verified().Len(); got != 1 || trusted != 1 {
		t.Fatalf("%d pooled, %d trusted, want 1 and 1", got, trusted)
	}
}
