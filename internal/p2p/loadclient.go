package p2p

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"decloud/internal/bidding"
	"decloud/internal/ledger"
	"decloud/internal/miner"
	"decloud/internal/obs"
	"decloud/internal/sealed"
)

// LoadClient is the participant side of the protocol: it multiplexes any
// number of virtual participant identities — one for a single client or
// provider, thousands for the load generator — over one gossip
// connection (or a few, see NewLoadClientConns). It seals and publishes
// bids, answers each preamble with one frame of every identity's key
// reveals, stamps submit→commit latency when the full block lands, and
// releases the keys of the bids that block carries.
//
// Submission is safe for concurrent use as long as two goroutines never
// submit for the SAME virtual client index at once (each identity's
// entropy reader is not locked) — the loadgen engine shards clients over
// its workers to guarantee that. Distinct submit connections (PublishOn)
// are independently locked and safe to drive concurrently.
type LoadClient struct {
	// nets[0] is the control connection: it carries the receive side of
	// the protocol (preambles in, reveals out, blocks in) exactly once,
	// no matter how many submit connections exist. Every net carries
	// outgoing bids; PublishOn shards submissions across them so a
	// frontier-scale run is not bound by one socket's write path.
	nets  []*Node
	parts []*miner.Participant
	lat   *obs.Histogram // nil-safe; submit→commit seconds

	submitted int64 // atomic
	committed int64 // atomic
	matched   int64 // atomic

	mu       sync.Mutex
	submitAt map[[32]byte]time.Time // bids published and not yet seen committed
	mine     map[string]bool        // order IDs this client submitted
	blocks   map[[32]byte]bool      // block preambles already processed
}

// NewLoadClient starts a load endpoint carrying len(entropy) virtual
// identities; a nil slice entry draws that identity's keys from
// crypto/rand. lat (optional) receives one submit→commit latency
// observation per committed bid, in seconds.
func NewLoadClient(name, addr string, entropy []io.Reader, lat *obs.Histogram) (*LoadClient, error) {
	return NewLoadClientConns(name, addr, entropy, lat, 1)
}

// NewLoadClientConns is NewLoadClient with the submit side sharded over
// conns independent TCP connections. Only the first connection receives
// gossip (preambles, blocks) and answers with reveals — the protocol's
// receive side stays exactly-once — while bid submission fans out across
// all of them via PublishOn. conns < 1 behaves as 1.
func NewLoadClientConns(name, addr string, entropy []io.Reader, lat *obs.Histogram, conns int) (*LoadClient, error) {
	if len(entropy) == 0 {
		entropy = make([]io.Reader, 1)
	}
	if conns < 1 {
		conns = 1
	}
	parts := make([]*miner.Participant, len(entropy))
	for i, e := range entropy {
		p, err := miner.NewParticipant(e)
		if err != nil {
			return nil, err
		}
		parts[i] = p
	}
	nets := make([]*Node, conns)
	for c := range nets {
		nm := name
		if c > 0 {
			nm = fmt.Sprintf("%s#%d", name, c)
		}
		n, err := Listen(nm, addr)
		if err != nil {
			for _, m := range nets[:c] {
				_ = m.Close()
			}
			return nil, err
		}
		nets[c] = n
	}
	lc := &LoadClient{
		nets:     nets,
		parts:    parts,
		lat:      lat,
		submitAt: make(map[[32]byte]time.Time),
		mine:     make(map[string]bool),
		blocks:   make(map[[32]byte]bool),
	}
	nets[0].Handle(msgPreamble, lc.onPreamble)
	nets[0].Handle(msgBlock, lc.onBlock)
	return lc, nil
}

// Connect joins a peer's gossip on every connection.
func (lc *LoadClient) Connect(addr string) error {
	for _, n := range lc.nets {
		if err := n.Connect(addr); err != nil {
			return err
		}
	}
	return nil
}

// SetLimits installs transport limits on every underlying node (raise
// the frame cap to receive large blocks).
func (lc *LoadClient) SetLimits(l Limits) {
	for _, n := range lc.nets {
		n.SetLimits(l)
	}
}

// SetFaults installs a transport fault plan on every underlying node, so
// a devnet partition also severs participant endpoints.
func (lc *LoadClient) SetFaults(f FaultPlan) {
	for _, n := range lc.nets {
		n.SetFaults(f)
	}
}

// Clients returns the number of virtual identities.
func (lc *LoadClient) Clients() int { return len(lc.parts) }

// Conns returns the number of TCP connections submissions shard over.
func (lc *LoadClient) Conns() int { return len(lc.nets) }

// ClientID returns virtual client i's on-ledger fingerprint.
func (lc *LoadClient) ClientID(i int) bidding.ParticipantID {
	return lc.parts[i%len(lc.parts)].ID()
}

// Close shuts every connection down, returning the first error.
func (lc *LoadClient) Close() error {
	var first error
	for _, n := range lc.nets {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SubmitRequest seals r under virtual client i's identity and broadcasts
// it, stamping the submit time for latency accounting. The returned
// digest identifies the sealed bid on-chain (the devnet's conservation
// audit keys its submitted-set on it).
func (lc *LoadClient) SubmitRequest(i int, r *bidding.Request) ([32]byte, error) {
	return lc.SubmitRequestOn(0, i, r)
}

// SubmitRequestOn is SubmitRequest publishing over connection conn (mod
// Conns) — load-generator workers pin a connection each, so no socket's
// write path is shared by more workers than necessary.
func (lc *LoadClient) SubmitRequestOn(conn, i int, r *bidding.Request) ([32]byte, error) {
	bid, err := lc.SealRequest(i, r)
	if err != nil {
		return [32]byte{}, err
	}
	return bid.Digest(), lc.PublishOn(conn, string(r.ID), bid)
}

// SubmitOffer seals o under virtual client i's identity and broadcasts it.
func (lc *LoadClient) SubmitOffer(i int, o *bidding.Offer) ([32]byte, error) {
	return lc.SubmitOfferOn(0, i, o)
}

// SubmitOfferOn is SubmitOffer publishing over connection conn (mod
// Conns).
func (lc *LoadClient) SubmitOfferOn(conn, i int, o *bidding.Offer) ([32]byte, error) {
	bid, err := lc.SealOffer(i, o)
	if err != nil {
		return [32]byte{}, err
	}
	return bid.Digest(), lc.PublishOn(conn, string(o.ID), bid)
}

// SealRequest seals r under virtual client i's identity WITHOUT
// broadcasting — follow with Publish. The split lets a caller durably
// record the bid digest (e.g. a crash-safe audit log) before the bid can
// possibly reach the network, so the recorded submitted-set always
// covers everything that could ever be committed.
func (lc *LoadClient) SealRequest(i int, r *bidding.Request) (*sealed.Bid, error) {
	return lc.parts[i%len(lc.parts)].SubmitRequest(r)
}

// SealOffer seals o under virtual client i's identity without
// broadcasting — follow with Publish.
func (lc *LoadClient) SealOffer(i int, o *bidding.Offer) (*sealed.Bid, error) {
	return lc.parts[i%len(lc.parts)].SubmitOffer(o)
}

// Publish broadcasts a previously sealed bid on the control connection
// and starts its latency clock. orderID is the plaintext order's ID
// (match accounting).
func (lc *LoadClient) Publish(orderID string, bid *sealed.Bid) error {
	return lc.PublishOn(0, orderID, bid)
}

// PublishOn is Publish over connection conn (mod Conns). The bid is booked
// before it is sent: onBlock may see its block before Broadcast returns.
func (lc *LoadClient) PublishOn(conn int, orderID string, bid *sealed.Bid) error {
	payload, err := sealed.AppendBid(nil, bid)
	if err != nil {
		return err
	}
	lc.mu.Lock()
	lc.submitAt[bid.Digest()] = time.Now()
	lc.mine[orderID] = true
	lc.mu.Unlock()
	if err = lc.nets[conn%len(lc.nets)].Broadcast(msgBid, payload); err == nil {
		atomic.AddInt64(&lc.submitted, 1)
	}
	return err
}

// Counts reports (submitted, committed, matched) bid totals. Committed
// means the bid appeared in a full block received on the wire; matched
// means one of this client's requests appears in a committed allocation.
func (lc *LoadClient) Counts() (submitted, committed, matched int64) {
	return atomic.LoadInt64(&lc.submitted),
		atomic.LoadInt64(&lc.committed),
		atomic.LoadInt64(&lc.matched)
}

// onPreamble validates a mined preamble and answers with key reveals for
// every virtual identity's committed bids — the phase boundary of the
// protocol: keys go out only once the proof-of-work is fixed, and only
// against a preamble that commits to the bids it lists.
func (lc *LoadClient) onPreamble(msg Message) {
	block, err := ledger.DecodeBlock(msg.Payload)
	if err != nil || !block.Preamble.ValidPoW() || ledger.HashBids(block.Bids) != block.Preamble.BidsHash {
		return
	}
	// Batch all identities' reveals into a single frame per preamble —
	// at load-test order rates the per-order reveal frames were the
	// dominant transport cost of a round.
	if krs := miner.RevealAll(lc.parts, sealed.NewIndex(block.Bids)); len(krs) > 0 {
		payload, _ := sealed.AppendReveals(nil, krs) // the identities' own keys: KeySize each
		_ = lc.nets[0].Broadcast(msgReveals, payload)
	}
}

// onBlock observes a full committed block: every bid of ours it carries
// gets a submit→commit latency sample, every allocation naming one of our
// requests counts as a match, and the identities' retained keys for the
// block's bids are released.
func (lc *LoadClient) onBlock(msg Message) {
	block, err := ledger.DecodeBlock(msg.Payload)
	if err != nil || block.Validate() != nil {
		return
	}
	now := time.Now()
	ph := block.Preamble.Hash()
	lc.mu.Lock()
	if lc.blocks[ph] { // duplicate delivery (chaos dup, competing relay)
		lc.mu.Unlock()
		return
	}
	lc.blocks[ph] = true
	lc.mu.Unlock()
	digests := sealed.Digests(block.Bids)
	lc.mu.Lock()
	var newlyCommitted int64
	for _, d := range digests {
		at, ours := lc.submitAt[d]
		if !ours {
			continue
		}
		delete(lc.submitAt, d)
		newlyCommitted++
		lc.lat.Observe(now.Sub(at).Seconds())
	}
	var newlyMatched int64
	if records, err := ledger.DecodeAllocation(block.Body.Allocation); err == nil {
		for _, rec := range records {
			if lc.mine[rec.RequestID] {
				newlyMatched++
			}
		}
	}
	lc.mu.Unlock()
	atomic.AddInt64(&lc.committed, newlyCommitted)
	atomic.AddInt64(&lc.matched, newlyMatched)
	for _, part := range lc.parts {
		part.Forget(digests)
	}
}
