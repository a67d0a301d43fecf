package p2p

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decloud/internal/auction"
	"decloud/internal/ledger"
	"decloud/internal/obs"
	"decloud/internal/sealed"
	"decloud/internal/workload"
)

// goldenPayloads builds one payload of every message type from fixed
// bytes, through the encoders the nodes use.
func goldenPayloads() map[string][]byte {
	fill := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	bid := &sealed.Bid{Sender: fill(0x11, 32), Signature: fill(0x22, 64), Envelope: []byte("sealed order")}
	reveals := []*sealed.KeyReveal{{Key: fill(0x44, 32)}, {Key: fill(0x66, 32)}}
	copy(reveals[0].BidDigest[:], fill(0x33, 32))
	copy(reveals[1].BidDigest[:], fill(0x55, 32))
	pre := ledger.Preamble{Height: 1, Timestamp: 1700000000, Difficulty: 8, Nonce: 99}
	copy(pre.PrevHash[:], fill(0x77, 32))
	copy(pre.BidsHash[:], fill(0x88, 32))
	preamble := &ledger.Block{Preamble: pre, Bids: []*sealed.Bid{bid}}
	block := &ledger.Block{Preamble: pre, Bids: []*sealed.Bid{bid}, Body: ledger.NewBody(reveals, []byte(`[{"request_id":"r-1"}]`))}
	enc := func(payload []byte, err error) []byte {
		if err != nil {
			panic(err) // fixed, well-formed values
		}
		return payload
	}
	return map[string][]byte{
		msgBid:      enc(sealed.AppendBid(nil, bid)),
		msgReveals:  enc(sealed.AppendReveals(nil, reveals)),
		msgPreamble: enc(ledger.AppendBlock(nil, preamble)),
		msgBlock:    enc(ledger.AppendBlock(nil, block)),
		msgChain:    append([]byte{1, 'v'}, enc(ledger.AppendBlock(nil, block))...),
		msgVote:     enc(json.Marshal(vote{Voter: "v", Height: 1, OK: true})),
		msgSyncReq:  enc(json.Marshal(syncRequest{From: "v", Height: 1})),
	}
}

// TestFrameGolden pins the byte layout of one frame of every message type
// (testdata/frames.golden; regenerate with GOLDEN_UPDATE=1 only for a
// deliberate format change): an accidental change to the frame or to a
// payload codec fails here.
func TestFrameGolden(t *testing.T) {
	var lines []string
	for typ, payload := range goldenPayloads() {
		frame := appendFrame(nil, &Message{ID: 1, From: "golden", Type: typ, Payload: payload})
		msg, read, err := readFrame(bytes.NewReader(frame), DefaultMaxFrameBytes)
		if err != nil || !bytes.Equal(read, frame) || msg.ID != 1 || msg.From != "golden" || msg.Type != typ || !bytes.Equal(msg.Payload, payload) {
			t.Fatalf("%s frame does not read back: %+v, %v", typ, msg, err)
		}
		lines = append(lines, typ+" "+hex.EncodeToString(frame))
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "frames.golden")
	if os.Getenv("GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("frame layout changed:\n got %s\nwant %s", got, want)
	}
}

// countingReader counts the bytes a reader handed out.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n += k
	return k, err
}

// FuzzFrameDecode feeds any byte stream to the frame reader: it never
// panics; it allocates at most twice the bytes received plus one
// frameChunk (what arrived, plus the piece being filled — never the
// claimed length — and one exact copy of a frame longer than a piece); a
// header claiming more than the cap is refused having read the header
// alone; and every frame it returns re-encodes to exactly its bytes.
func FuzzFrameDecode(f *testing.F) {
	for _, payload := range goldenPayloads() {
		f.Add(appendFrame(nil, &Message{ID: 7, From: "a", Type: "t", Payload: payload}))
	}
	f.Add([]byte{0x00, 0x10, 0x00, 0x01})             // one byte over the fuzz cap, no body
	f.Add([]byte{0x00, 0x00, 0x00, 0x05, 1, 2, 3, 4}) // too short to hold the header fields
	f.Add([]byte{0x00, 0x00, 0x00, 0x20, 0, 0, 0, 0}) // truncated body
	big := appendFrame(nil, &Message{ID: 8, From: "a", Type: "t", Payload: make([]byte, 3*frameChunk)})
	f.Add(big)                // several pieces, joined
	f.Add(big[:2*frameChunk]) // a long claim, half sent
	f.Fuzz(func(t *testing.T, stream []byte) {
		const max = 1 << 20
		r := &countingReader{r: bytes.NewReader(stream)}
		msgs := make([]Message, 0, len(stream)/(4+minFrame)+1) // outside the measured allocations
		frames := make([][]byte, 0, cap(msgs))
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for err := error(nil); err == nil; {
			start := r.n
			var msg Message
			var frame []byte
			if msg, frame, err = readFrame(r, max); err == nil {
				msgs, frames = append(msgs, msg), append(frames, frame)
			} else if err == errOversize && (r.n-start != 4 || binary.BigEndian.Uint32(stream[start:]) <= max) {
				t.Fatalf("refused as oversize after reading %d bytes of a frame claiming %d", r.n-start, binary.BigEndian.Uint32(stream[start:]))
			}
		}
		runtime.ReadMemStats(&ms)
		if alloc := ms.TotalAlloc - before; alloc > uint64(2*r.n+frameChunk+16<<10) {
			t.Fatalf("allocated %d bytes reading %d", alloc, r.n)
		}
		for i, msg := range msgs {
			if again := appendFrame(nil, &msg); !bytes.Equal(again, frames[i]) {
				t.Fatalf("frame %x re-encodes to %x", frames[i], again)
			}
		}
	})
}

// TestRelayForwardsReceivedBytes: on a line A — B — C, C receives
// byte for byte the frame A sent; B delivers it and relays what it read,
// re-encoding nothing.
func TestRelayForwardsReceivedBytes(t *testing.T) {
	b, err := Listen("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	delivered := make(chan []byte, 1)
	b.Handle("x", func(m Message) { delivered <- append([]byte(nil), m.Payload...) })

	c, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := b.Connect(c.Addr().String()); err != nil {
		t.Fatal(err)
	}
	atC, err := c.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer atC.Close()

	a, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	payload := []byte("any payload \x00\xff the transport never looks inside")
	sent := appendFrame(nil, &Message{ID: 42, From: "a", Type: "x", Payload: payload})
	if _, err := a.Write(sent); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, len(sent))
	_ = atC.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(atC, got); err != nil {
		t.Fatalf("C read: %v", err)
	}
	if !bytes.Equal(got, sent) {
		t.Fatalf("C received %x, A sent %x", got, sent)
	}
	if p := <-delivered; !bytes.Equal(p, payload) {
		t.Fatalf("B delivered %q", p)
	}
}

// TestStalledPeerIsDropped: a peer that never reads fills its socket
// buffers and then takes nothing. The node's broadcasts still return
// within 2 × stallTimeout, the live peer receives every frame, the
// stalled one is dropped and counted, and Close returns at once.
func TestStalledPeerIsDropped(t *testing.T) {
	srv, err := Listen("stall-srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m := obs.NewNetMetrics(obs.NewRegistry())
	srv.SetObs(m)
	live, err := Listen("stall-live", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	var got atomic.Int64
	live.Handle("blob", func(Message) { got.Add(1) })
	if err := live.Connect(srv.Addr()); err != nil {
		t.Fatal(err)
	}
	stalled, err := net.Dial("tcp", srv.Addr()) // never reads
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close() // first: unblocks a node that would wait forever
	waitFor(t, "both peers", func() bool { return srv.PeerCount() == 2 })

	const frames = 64
	payload := make([]byte, 1<<20)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < frames; i++ {
			binary.BigEndian.PutUint64(payload, uint64(i))
			_ = srv.Broadcast("blob", payload)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * stallTimeout):
		t.Fatalf("%d × 1 MiB broadcasts still blocked after %v: a peer that stopped reading froze the node", frames, 2*stallTimeout)
	}
	waitFor(t, "every frame at the live peer", func() bool { return got.Load() == frames })
	waitFor(t, "the stalled peer dropped", func() bool { return srv.PeerCount() == 1 })
	if n := m.Stalled.Value(); n != 1 {
		t.Fatalf("Stalled = %d, want 1", n)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung after a stalled peer")
	}
}

// payloadTap records the payload sizes of every message type it sees.
type payloadTap struct {
	mu    sync.Mutex
	sizes map[string][]int
}

func (p *payloadTap) record(m Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sizes[m.Type] = append(p.sizes[m.Type], len(m.Payload))
}

func (p *payloadTap) get(typ string) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.sizes[typ]...)
}

// TestPayloadSizesAt2048Bids: a round_burst-sized round — 2 048 orders of
// the benchmark's stream from 64 identities through one LoadClient —
// puts on the wire what the binary codecs were measured at: bid,
// preamble, reveal-batch and block payloads within 110 % of 327 B,
// 0.71 MB, 131 KB and 1.28 MB.
func TestPayloadSizesAt2048Bids(t *testing.T) {
	producer, err := NewMarketNode("size-p", "127.0.0.1:0", testDifficulty, auction.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { producer.Close() })
	tap, err := Listen("size-tap", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tap.Close() })
	sizes := &payloadTap{sizes: map[string][]int{}}
	for _, typ := range []string{msgBid, msgPreamble, msgReveals, msgBlock} {
		tap.Handle(typ, sizes.record)
	}
	if err := tap.Connect(producer.Addr()); err != nil {
		t.Fatal(err)
	}
	entropy := make([]io.Reader, 64)
	for i := range entropy {
		entropy[i] = newDetReader(fmt.Sprintf("size-id-%d", i))
	}
	lc, err := NewLoadClient("size-lc", "127.0.0.1:0", entropy, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.Connect(producer.Addr()); err != nil {
		t.Fatal(err)
	}

	const orders = 2048
	stream := workload.NewStream(workload.StreamConfig{Seed: 1, Clients: 64, EpochOrders: 512})
	for _, so := range stream.Emit(orders) {
		var err error
		if so.Request != nil {
			_, err = lc.SubmitRequest(so.Client, so.Request)
		} else {
			_, err = lc.SubmitOffer(so.Client, so.Offer)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for producer.MempoolSize() < orders && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sum, err := producer.ProduceBlockOpts(ctx, RoundConfig{RevealWindow: 30 * time.Second})
	if err != nil || sum.Unrevealed != 0 || len(sum.Block.Bids) != orders {
		t.Fatalf("round: %+v, %v", sum, err)
	}
	waitFor(t, "the block at the tap", func() bool { return len(sizes.get(msgBlock)) == 1 })

	for _, c := range []struct {
		typ    string
		frames int     // how many frames of the type the round puts on the wire
		target float64 // bytes per frame
	}{
		{msgBid, orders, 327},
		{msgPreamble, 1, 0.71e6},
		{msgReveals, 1, 131e3},
		{msgBlock, 1, 1.28e6},
	} {
		seen := sizes.get(c.typ)
		total := 0
		for _, n := range seen {
			total += n
		}
		if len(seen) != c.frames {
			t.Fatalf("the tap saw %d %s frames, want %d", len(seen), c.typ, c.frames)
		}
		mean := float64(total) / float64(len(seen))
		t.Logf("%s payload: %.0f bytes (mean of %d; target %.0f)", c.typ, mean, len(seen), c.target)
		if mean > 1.1*c.target {
			t.Errorf("%s payload of %.0f bytes exceeds 110 %% of %.0f", c.typ, mean, c.target)
		}
	}
}
