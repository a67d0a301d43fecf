// Package p2p provides the networked deployment of the two-phase bid
// exposure protocol: a small TCP gossip transport (length-prefixed binary
// frames, relayed as received; flood routing with deduplication) and a
// MarketNode that runs the miner role over it. The in-process
// miner.Network is the reference implementation; this package carries the
// same message flow across real sockets so that miners and participants
// can run as separate processes (see cmd/decloud-node).
package p2p

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"decloud/internal/obs"
)

// Message is one delivered frame. ID makes flooding idempotent: every node
// relays a message at most once. Payload aliases the frame: read-only.
type Message struct {
	ID      uint64
	From    string
	Type    string
	Payload []byte
}

// key is SHA-256(id ‖ from ‖ 0 ‖ type ‖ 0 ‖ payload), for dedup and faults.
func (m *Message) key() [32]byte {
	h := sha256.New()
	h.Write(binary.BigEndian.AppendUint64(nil, m.ID))
	h.Write([]byte(m.From + "\x00" + m.Type + "\x00"))
	h.Write(m.Payload)
	return [32]byte(h.Sum(nil))
}

// A frame is u32 length ‖ u64 id ‖ u8 len ‖ type ‖ u8 len ‖ from ‖ payload,
// the length counting the bytes after it; it is read and written in
// frameChunk steps, and a peer that takes no chunk for stallTimeout is
// dropped (DESIGN.md §8.1).
const (
	minFrame     = 8 + 1 + 1 // id and the two field lengths
	frameChunk   = 64 * 1024
	stallTimeout = 5 * time.Second
)

var errOversize, errMalformed = errors.New("p2p: frame over the frame cap"), errors.New("p2p: malformed frame")

// appendFrame encodes a message whose type and from are at most 255 bytes.
func appendFrame(dst []byte, m *Message) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(minFrame+len(m.Type)+len(m.From)+len(m.Payload)))
	dst = append(binary.BigEndian.AppendUint64(dst, m.ID), byte(len(m.Type)))
	dst = append(append(dst, m.Type...), byte(len(m.From)))
	return append(append(dst, m.From...), m.Payload...)
}

// readFrame reads a frame (with its length, as a relay forwards it) and its
// message. A length over max, or too short for the fields, is refused unread;
// the body arrives in frameChunk pieces, each allocated once the last is full.
func readFrame(r io.Reader, max int) (msg Message, frame []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return msg, nil, err
	}
	n := int64(binary.BigEndian.Uint32(hdr[:]))
	if n > int64(max) {
		return msg, nil, errOversize
	} else if n < minFrame {
		return msg, nil, errMalformed
	}
	frame = make([]byte, 4+min(n, frameChunk))
	_, err = io.ReadFull(r, frame[copy(frame, hdr[:]):])
	parts := [][]byte{frame}
	for left := n - frameChunk; left > 0 && err == nil; left -= frameChunk {
		parts = append(parts, make([]byte, min(left, frameChunk)))
		_, err = io.ReadFull(r, parts[len(parts)-1])
	}
	if err != nil {
		return msg, nil, err
	} else if len(parts) > 1 {
		frame = bytes.Join(parts, nil)
	}
	msg.ID, msg.Payload = binary.BigEndian.Uint64(frame[4:]), frame[12:]
	for _, field := range []*string{&msg.Type, &msg.From} {
		if *field, msg.Payload, err = cutString(msg.Payload); err != nil {
			return msg, nil, err
		}
	}
	return msg, frame, nil
}

// cutString splits a u8-length-prefixed string off b.
func cutString(b []byte) (string, []byte, error) {
	if len(b) == 0 || len(b) <= int(b[0]) {
		return "", nil, errMalformed
	}
	return string(b[1 : 1+int(b[0])]), b[1+int(b[0]):], nil
}

// Handler consumes a delivered message.
type Handler func(Message)

// FaultPlan injects transport faults into a node's gossip (chaos
// engineering; chaos.Plan satisfies this). PlanDelivery is consulted once
// per unique message the node sees — node is this endpoint's name, from
// the message's originator — and returns the delivery schedule: nil means
// deliver normally, a non-nil empty slice drops the message at this node,
// and otherwise each entry is one local delivery after that delay (the
// earliest entry also gates the onward relay; later entries are duplicate
// local deliveries, exercising handler idempotency upstream of the
// flooding dedup). Implementations must be safe for concurrent use.
type FaultPlan interface {
	PlanDelivery(node, from, msgType string, key [32]byte) []time.Duration
}

// ErrClosed is returned by operations on a closed node.
var ErrClosed = errors.New("p2p: node closed")

// ErrConnLimit is returned by Connect when the node is at its connection
// limit; inbound connections over the limit are silently refused (and
// counted in NetMetrics.Rejected).
var ErrConnLimit = errors.New("p2p: connection limit reached")

// DefaultMaxFrameBytes is the frame size cap applied when Limits leaves
// MaxFrameBytes zero. A block carrying ~100k sealed bids encodes to over
// 60 MiB: the default is sized for load-test blocks, not chat traffic.
const DefaultMaxFrameBytes = 256 * 1024 * 1024

// Limits bounds a node's resource use under load. The zero value means
// "no connection cap, default frame cap". Install with SetLimits before
// connecting peers: the frame cap is latched per connection when its
// reader starts, so changing it later only affects new connections.
type Limits struct {
	// MaxConns caps simultaneous connections (inbound + outbound).
	// 0 means unlimited. Inbound connections beyond the cap are closed
	// immediately; Connect returns ErrConnLimit.
	MaxConns int
	// MaxFrameBytes caps a single frame (its length field). A peer whose
	// frame header claims more is disconnected before any of the body is
	// read. 0 means DefaultMaxFrameBytes.
	MaxFrameBytes int
}

// Node is one gossip endpoint: it accepts inbound peers, dials outbound
// peers, and floods messages to all of them, delivering each unique
// message to the local handlers exactly once (unless a FaultPlan says
// otherwise).
type Node struct {
	name string
	ln   net.Listener
	stop chan struct{}

	mu       sync.Mutex
	conns    map[net.Conn]*peer
	seen     map[[32]byte]bool
	handlers map[string][]Handler
	faults   FaultPlan
	limits   Limits
	logf     func(format string, args ...any)
	closed   bool

	// metrics is read on every reader goroutine without the node lock;
	// an atomic pointer keeps SetObs race-free against live traffic. A
	// nil bundle (the default) disables all accounting.
	metrics atomic.Pointer[obs.NetMetrics]

	seq uint64
	wg  sync.WaitGroup
}

// peer is one connection's write side, serialized, never under n.mu.
type peer struct {
	conn net.Conn
	mu   sync.Mutex
}

// Listen starts a node named name on addr (use "127.0.0.1:0" for an
// ephemeral port).
func Listen(name, addr string) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("p2p: listen: %w", err)
	}
	n := &Node{
		name:     name,
		ln:       ln,
		stop:     make(chan struct{}),
		conns:    make(map[net.Conn]*peer),
		seen:     make(map[[32]byte]bool),
		handlers: make(map[string][]Handler),
		logf:     func(string, ...any) {},
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Addr returns the listening address (host:port).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// SetObs installs the transport metrics bundle (nil removes it). Safe to
// call while traffic flows; counters only ever move forward, so a
// mid-stream install simply starts counting from that point.
func (n *Node) SetObs(m *obs.NetMetrics) { n.metrics.Store(m) }

// SetLimits installs resource limits (see Limits). Safe to call while
// traffic flows; the connection cap applies to subsequent accepts and
// dials, the frame cap to subsequently opened connections.
func (n *Node) SetLimits(l Limits) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.limits = l
}

// Limits returns the currently installed limits.
func (n *Node) Limits() Limits {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.limits
}

// SetFaults installs a fault plan (nil removes it). Install before
// connecting peers so every message is planned consistently.
func (n *Node) SetFaults(f FaultPlan) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = f
}

// SetLogf routes the node's diagnostics (default: discarded). Expected
// shutdown noise — EOF, reset, or closed-connection errors during Close —
// is never logged; only genuinely unexpected read errors reach logf.
func (n *Node) SetLogf(logf func(format string, args ...any)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	n.logf = logf
}

// PeerCount reports the number of live connections.
func (n *Node) PeerCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// Connect dials a peer and joins its gossip.
func (n *Node) Connect(addr string) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	n.mu.Unlock()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("p2p: connect %s: %w", addr, err)
	}
	if !n.addConn(conn) {
		return ErrConnLimit
	}
	return nil
}

// Handle registers a handler for a message type. Handlers run on reader
// goroutines; they must not block indefinitely.
func (n *Node) Handle(msgType string, fn Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[msgType] = append(n.handlers[msgType], fn)
}

// Broadcast floods a message to every peer, encoding its frame once (type
// and node name at most 255 bytes). The local node's handlers do NOT
// receive their own broadcasts. Under a FaultPlan the broadcast may be
// silently dropped or delayed at the source, as a lossy network would.
func (n *Node) Broadcast(msgType string, payload []byte) error {
	if len(msgType) > 255 || len(n.name) > 255 {
		return fmt.Errorf("p2p: message type %q or node name %q over 255 bytes", msgType, n.name)
	}
	msg := Message{ID: atomic.AddUint64(&n.seq, 1), From: n.name, Type: msgType, Payload: payload}
	if !n.deliver(msg, appendFrame(make([]byte, 0, 4+minFrame+len(msgType)+len(n.name)+len(payload)), &msg), nil) {
		return ErrClosed
	}
	return nil
}

// scheduleLocked consults the fault plan for a message's delivery
// schedule, sorted ascending. Callers hold n.mu. No plan (or no opinion)
// yields a single immediate delivery.
func (n *Node) scheduleLocked(msg *Message, key [32]byte) []time.Duration {
	if n.faults == nil {
		return []time.Duration{0}
	}
	s := n.faults.PlanDelivery(n.name, msg.From, msg.Type, key)
	if s == nil {
		return []time.Duration{0}
	}
	s = append([]time.Duration(nil), s...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if m := n.metrics.Load(); m != nil {
		switch {
		case len(s) == 0:
			m.FaultDropped.Inc()
		default:
			if s[0] > 0 {
				m.FaultDelayed.Inc()
			}
			m.FaultDup.Add(int64(len(s) - 1))
		}
	}
	return s
}

// after runs fn on a tracked goroutine once d elapses, unless the node
// closes first — so Close never waits out a pending chaos delay. A zero d
// runs fn at once, on the caller's goroutine.
func (n *Node) after(d time.Duration, fn func()) {
	if d == 0 {
		fn()
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			fn()
		case <-n.stop:
		}
	}()
}

// relay writes a frame, as it is, to every peer but skip; false if closed.
func (n *Node) relay(frame []byte, skip net.Conn) bool {
	n.mu.Lock()
	peers := make([]*peer, 0, len(n.conns))
	for conn, p := range n.conns {
		if conn != skip {
			peers = append(peers, p)
		}
	}
	closed := n.closed
	n.mu.Unlock()
	for _, p := range peers {
		p.send(frame, n.metrics.Load())
	}
	return !closed
}

// send writes a frame, each chunk under a fresh stallTimeout deadline, so
// a slow but live link is not cut off. A failed write closes the
// connection (its reader then unregisters it); a stall is counted.
func (p *peer) send(frame []byte, m *obs.NetMetrics) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for rest := frame; len(rest) > 0; {
		_ = p.conn.SetWriteDeadline(time.Now().Add(stallTimeout))
		k, err := p.conn.Write(rest[:min(len(rest), frameChunk)])
		if rest = rest[k:]; err != nil {
			p.conn.Close()
			if m != nil && errors.Is(err, os.ErrDeadlineExceeded) {
				m.Stalled.Inc()
			}
			return
		}
	}
	if m != nil {
		m.SentMsgs.Inc()
		m.SentBytes.Add(int64(len(frame)))
	}
}

// Close shuts the node down: no new connections are accepted, every
// existing connection is closed, pending fault-delayed deliveries are
// abandoned, and Close returns only after every reader and timer
// goroutine has exited — nothing is leaked and nothing spurious is
// logged.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stop)
	for conn := range n.conns {
		conn.Close()
	}
	n.conns = map[net.Conn]*peer{}
	n.mu.Unlock()
	err := n.ln.Close()
	n.wg.Wait()
	return err
}

func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// log emits a diagnostic through the current logf under the lock
// discipline (SetLogf may race with reader goroutines otherwise).
func (n *Node) log(format string, args ...any) {
	n.mu.Lock()
	logf := n.logf
	n.mu.Unlock()
	logf(format, args...)
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			if !n.isClosed() && !errors.Is(err, net.ErrClosed) {
				n.log("p2p: %s: accept: %v", n.name, err)
			}
			return
		}
		n.addConn(conn)
	}
}

// addConn registers a connection and starts its reader; it reports false
// (closing the connection) when the node is closed or at its connection
// limit.
func (n *Node) addConn(conn net.Conn) bool {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return false
	}
	if max := n.limits.MaxConns; max > 0 && len(n.conns) >= max {
		n.mu.Unlock()
		conn.Close()
		if m := n.metrics.Load(); m != nil {
			m.Rejected.Inc()
		}
		return false
	}
	n.conns[conn] = &peer{conn: conn}
	maxFrame := n.limits.MaxFrameBytes
	n.mu.Unlock()
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	if m := n.metrics.Load(); m != nil {
		m.Conns.Add(1)
	}
	n.wg.Add(1)
	go n.readLoop(conn, maxFrame)
	return true
}

// readLoop reads frames until the connection ends, or until an oversize
// or malformed frame ends it: the stream cannot be re-synchronized.
func (n *Node) readLoop(conn net.Conn, maxFrame int) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
		conn.Close()
		if m := n.metrics.Load(); m != nil {
			m.Conns.Add(-1)
		}
	}()
	r := bufio.NewReaderSize(conn, frameChunk)
	for {
		msg, frame, err := readFrame(r, maxFrame)
		m := n.metrics.Load()
		if err == nil && m != nil {
			m.RecvMsgs.Inc()
			m.RecvBytes.Add(int64(len(frame)))
		}
		switch {
		case err == nil:
			n.deliver(msg, frame, conn)
			continue
		case m != nil && err == errOversize:
			m.Oversize.Inc()
		case m != nil && err == errMalformed:
			m.Malformed.Inc()
		}
		if err == errOversize || err == errMalformed || !n.isClosed() && !expectedDisconnect(err) {
			n.log("p2p: %s: dropping %s: %v", n.name, conn.RemoteAddr(), err)
		}
		return
	}
}

// expectedDisconnect reports whether a read error is ordinary peer-
// shutdown noise (the peer closed or reset mid-frame, or our own Close
// raced the reader) rather than something worth logging.
func expectedDisconnect(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// deliver takes a message in once: per scheduled delivery it is
// dispatched to the local handlers — unless it is the node's own broadcast
// (from == nil) — and it is relayed onward, the frame as received. It
// reports false, doing nothing, once the node is closed.
func (n *Node) deliver(msg Message, frame []byte, from net.Conn) bool {
	key := msg.key()
	n.mu.Lock()
	if closed := n.closed; closed || n.seen[key] {
		n.mu.Unlock()
		return !closed
	}
	n.seen[key] = true
	var handlers []Handler
	if from != nil { // not the node's own broadcast
		handlers = append(handlers, n.handlers[msg.Type]...)
	}
	schedule := n.scheduleLocked(&msg, key)
	n.mu.Unlock()
	if len(schedule) == 0 { // dropped at this hop: not relayed, not handled
		return true
	}
	dispatch := func() {
		for _, fn := range handlers {
			fn(msg)
		}
	}
	// The earliest delivery carries the relay; later entries are local
	// duplicates only (peers would dedup a re-relay anyway).
	n.after(schedule[0], func() {
		if n.relay(frame, from) {
			dispatch()
		}
	})
	for _, d := range schedule[1:] {
		n.after(d, func() {
			if !n.isClosed() {
				dispatch()
			}
		})
	}
	return true
}
