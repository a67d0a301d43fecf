// Package booktest is the differential-oracle harness of the streaming
// order book: it replays randomized multi-epoch mutation traces —
// inserts, cancels, time expiry, and carry, interleaved with clears —
// simultaneously against the incremental book and an independent
// from-scratch mirror, asserting byte-identical outcomes at every
// clearing round plus the conservation invariant
//
//	inserted == matched + carried(live) + expired + cancelled + carried-out
//
// per epoch. Traces are encoded as plain bytes (3 bytes per op), so the
// same decoder serves the property tests and FuzzBookMutations.
package booktest

import (
	"bytes"
	"fmt"

	"decloud/internal/auction"
	"decloud/internal/auction/paralleltest"
	"decloud/internal/bidding"
	"decloud/internal/book"
	"decloud/internal/workload"
)

// Horizon is the pool's time horizon (the workload default, 6 hours);
// the trace clock wraps inside it so expiry stays meaningful.
const Horizon int64 = 6 * 60 * 60

// Pool is the fixed order universe a trace draws from: every op
// references pool slots, so arbitrary trace bytes decode to valid
// operations. Besides the generated market it carries crafted edge
// orders — invalid windows and ID collisions with different contents —
// so traces exercise the book's rejection and cache-flush paths.
type Pool struct {
	Reqs []*bidding.Request
	Offs []*bidding.Offer
}

// NewPool builds a deterministic pool of roughly n requests and the
// workload's matching supply side.
func NewPool(seed int64, n int) *Pool {
	m := workload.Generate(workload.Config{Seed: seed, Requests: n})
	p := &Pool{Reqs: m.Requests, Offs: m.Offers}

	// Invalid orders: inverted time windows fail Validate.
	badR := *m.Requests[0]
	badR.ID, badR.Start, badR.End = "booktest-bad-req", 100, 50
	p.Reqs = append(p.Reqs, &badR)
	badO := *m.Offers[0]
	badO.ID, badO.Start, badO.End = "booktest-bad-off", 100, 50
	p.Offs = append(p.Offs, &badO)

	// ID re-use with different contents: one of these, inserted after
	// the other has lived and left, must not be priced from economics
	// cached for the other.
	varR := *m.Requests[1]
	varR.Bid *= 1.5
	varR.TrueValue = varR.Bid
	p.Reqs = append(p.Reqs, &varR)
	varO := *m.Offers[1]
	varO.Bid *= 1.5
	varO.TrueCost = varO.Bid
	p.Offs = append(p.Offs, &varO)
	return p
}

// NewGeoPool builds a pool over a geo-fragmented market: participants
// scatter across the unit square and every request carries a
// MaxDistance = radius locality constraint, so the shares-a-best-offer
// graph splits into several connected components. Traces over this pool
// drive the cluster builder down its posting walk, where a request's
// Update visits only its own neighbourhood's clusters; the outcome
// bytes must not move.
func NewGeoPool(seed int64, n int, radius float64) *Pool {
	m := workload.Generate(workload.Config{Seed: seed, Requests: n, GeoRadius: radius})
	return &Pool{Reqs: m.Requests, Offs: m.Offers}
}

// Op is one decoded trace operation.
type Op struct {
	Kind byte // one of the Op* constants
	Arg  int
}

// Trace opcodes. InsertReq/InsertOff stage a pool order into the
// pending batch; ClearDirect flushes the batch through InsertRequest/
// InsertOffer + Clear, ClearBlock through the miner-path Preview +
// Apply pair (asserting the two agree); Cancel removes a live order;
// Expire advances the wrapped trace clock and expires stale windows.
const (
	OpInsertReq byte = iota
	OpInsertOff
	OpCancelReq
	OpCancelOff
	OpExpire
	OpClearDirect
	OpClearBlock
	opCount
)

// Decode turns arbitrary bytes into a trace: 3 bytes per op — opcode
// mod opCount, then a big-endian 16-bit argument. Total by
// construction; any fuzz input is a valid trace.
func Decode(data []byte) []Op {
	ops := make([]Op, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		ops = append(ops, Op{
			Kind: data[i] % opCount,
			Arg:  int(data[i+1])<<8 | int(data[i+2]),
		})
	}
	return ops
}

// mirror is the independent from-scratch model the book is compared
// against: plain slices and maps, no caching, no index reuse — its
// clears call auction.Run on the full live market every time.
type mirror struct {
	reqs    []*bidding.Request
	offs    []*bidding.Offer
	reqLeft map[bidding.OrderID]int
	offLeft map[bidding.OrderID]int
}

func (m *mirror) liveReq(id bidding.OrderID) bool { _, ok := m.reqLeft[id]; return ok }
func (m *mirror) liveOff(id bidding.OrderID) bool { _, ok := m.offLeft[id]; return ok }

func (m *mirror) removeReq(id bidding.OrderID) {
	delete(m.reqLeft, id)
	for i, r := range m.reqs {
		if r.ID == id {
			m.reqs = append(m.reqs[:i], m.reqs[i+1:]...)
			return
		}
	}
}

func (m *mirror) removeOff(id bidding.OrderID) {
	delete(m.offLeft, id)
	for i, o := range m.offs {
		if o.ID == id {
			m.offs = append(m.offs[:i], m.offs[i+1:]...)
			return
		}
	}
}

// Replay runs one trace through a fresh book and the mirror under cfg,
// returning an error at the first divergence. maxCarry sets the carry
// budget of both models.
func Replay(pool *Pool, ops []Op, cfg auction.Config, maxCarry int) error {
	bk := book.New(cfg)
	bk.MaxCarry = maxCarry
	mir := &mirror{
		reqLeft: make(map[bidding.OrderID]int),
		offLeft: make(map[bidding.OrderID]int),
	}
	var pendR []*bidding.Request
	var pendO []*bidding.Offer
	pendingID := make(map[bidding.OrderID]bool)
	var now int64
	clears := 0

	clear := func(block bool) error {
		// Split the batch exactly as the book's admission will: live
		// duplicates are dropped, invalid orders are rejected, the rest
		// become live with a fresh carry budget.
		var admitR, oracleR []*bidding.Request
		for _, r := range pendR {
			if mir.liveReq(r.ID) {
				continue
			}
			oracleR = append(oracleR, r)
			if r.Validate() == nil {
				admitR = append(admitR, r)
			}
		}
		var admitO, oracleO []*bidding.Offer
		for _, o := range pendO {
			if mir.liveOff(o.ID) {
				continue
			}
			oracleO = append(oracleO, o)
			if o.Validate() == nil {
				admitO = append(admitO, o)
			}
		}

		evidence := []byte(fmt.Sprintf("booktest-evidence-%d", clears))
		clears++

		// Oracle: rebuild from scratch over the union market. In direct
		// mode the invalid orders were rejected at insert time and never
		// reach the clear, matching an oracle input of live orders only.
		oracleCfg := cfg
		oracleCfg.Evidence = evidence
		unionR := append(append([]*bidding.Request{}, mir.reqs...), oracleR...)
		unionO := append(append([]*bidding.Offer{}, mir.offs...), oracleO...)
		if !block {
			unionR = append(append([]*bidding.Request{}, mir.reqs...), admitR...)
			unionO = append(append([]*bidding.Offer{}, mir.offs...), admitO...)
		}
		want := auction.Run(unionR, unionO, oracleCfg)
		wantJSON, err := paralleltest.MarshalOutcome(want)
		if err != nil {
			return err
		}

		// Book: miner path (Preview + Apply) or direct inserts + Clear.
		var got *auction.Outcome
		if block {
			preview, _, _ := bk.Preview(pendR, pendO, evidence)
			got = bk.Apply(pendR, pendO, evidence)
			prevJSON, err := paralleltest.MarshalOutcome(preview)
			if err != nil {
				return err
			}
			gotJSON, err := paralleltest.MarshalOutcome(got)
			if err != nil {
				return err
			}
			if !bytes.Equal(prevJSON, gotJSON) {
				return fmt.Errorf("clear %d: Preview and Apply disagree", clears-1)
			}
		} else {
			for _, r := range pendR {
				bk.InsertRequest(r)
			}
			for _, o := range pendO {
				bk.InsertOffer(o)
			}
			got = bk.Clear(evidence)
		}
		gotJSON, err := paralleltest.MarshalOutcome(got)
		if err != nil {
			return err
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			return fmt.Errorf("clear %d (block=%v): incremental outcome diverges from rebuild oracle:\nwant %s\ngot  %s",
				clears-1, block, wantJSON, gotJSON)
		}

		// Advance the mirror with the oracle outcome: matched orders are
		// consumed, unmatched survivors spend one carry unit.
		for _, r := range admitR {
			mir.reqs = append(mir.reqs, r)
			mir.reqLeft[r.ID] = maxCarry + 1
		}
		for _, o := range admitO {
			mir.offs = append(mir.offs, o)
			mir.offLeft[o.ID] = maxCarry + 1
		}
		matchedR := make(map[bidding.OrderID]bool)
		matchedO := make(map[bidding.OrderID]bool)
		for i := range want.Matches {
			matchedR[want.Matches[i].Request.ID] = true
			matchedO[want.Matches[i].Offer.ID] = true
		}
		for _, r := range append([]*bidding.Request{}, mir.reqs...) {
			if matchedR[r.ID] {
				mir.removeReq(r.ID)
				continue
			}
			if mir.reqLeft[r.ID]--; mir.reqLeft[r.ID] <= 0 {
				mir.removeReq(r.ID)
			}
		}
		for _, o := range append([]*bidding.Offer{}, mir.offs...) {
			if matchedO[o.ID] {
				mir.removeOff(o.ID)
				continue
			}
			if mir.offLeft[o.ID]--; mir.offLeft[o.ID] <= 0 {
				mir.removeOff(o.ID)
			}
		}

		pendR, pendO = nil, nil
		pendingID = make(map[bidding.OrderID]bool)
		return compareState(bk, mir)
	}

	for _, op := range ops {
		switch op.Kind {
		case OpInsertReq:
			r := pool.Reqs[op.Arg%len(pool.Reqs)]
			// One copy of an ID per batch and never a live duplicate:
			// keeps the book/oracle admission rules aligned (the book
			// silently drops live duplicates, the screen does not).
			if !pendingID[r.ID] && !mir.liveReq(r.ID) {
				pendingID[r.ID] = true
				pendR = append(pendR, r)
			}
		case OpInsertOff:
			o := pool.Offs[op.Arg%len(pool.Offs)]
			if !pendingID[o.ID] && !mir.liveOff(o.ID) {
				pendingID[o.ID] = true
				pendO = append(pendO, o)
			}
		case OpCancelReq:
			id := pool.Reqs[op.Arg%len(pool.Reqs)].ID
			if mir.liveReq(id) {
				if !bk.CancelRequest(id) {
					return fmt.Errorf("cancel request %s: live in mirror, not in book", id)
				}
				mir.removeReq(id)
			}
		case OpCancelOff:
			id := pool.Offs[op.Arg%len(pool.Offs)].ID
			if mir.liveOff(id) {
				if !bk.CancelOffer(id) {
					return fmt.Errorf("cancel offer %s: live in mirror, not in book", id)
				}
				mir.removeOff(id)
			}
		case OpExpire:
			now = (now + 1 + int64(op.Arg)%600) % Horizon
			bk.ExpireBefore(now)
			for _, r := range append([]*bidding.Request{}, mir.reqs...) {
				if r.End < now {
					mir.removeReq(r.ID)
				}
			}
			for _, o := range append([]*bidding.Offer{}, mir.offs...) {
				if o.End < now {
					mir.removeOff(o.ID)
				}
			}
		case OpClearDirect:
			if err := clear(false); err != nil {
				return err
			}
		case OpClearBlock:
			if err := clear(true); err != nil {
				return err
			}
		}
	}
	// Always finish with a clear so every trace exercises at least one
	// differential comparison.
	return clear(len(ops)%2 == 0)
}

// compareState checks the book's live set against the mirror's and the
// book's conservation counters against themselves.
func compareState(bk *book.Book, mir *mirror) error {
	liveR := bk.LiveRequests()
	if len(liveR) != len(mir.reqs) {
		return fmt.Errorf("live requests: book %d, mirror %d", len(liveR), len(mir.reqs))
	}
	for i, r := range liveR {
		if r.ID != mir.reqs[i].ID {
			return fmt.Errorf("live request %d: book %s, mirror %s", i, r.ID, mir.reqs[i].ID)
		}
	}
	liveO := bk.LiveOffers()
	if len(liveO) != len(mir.offs) {
		return fmt.Errorf("live offers: book %d, mirror %d", len(liveO), len(mir.offs))
	}
	for i, o := range liveO {
		if o.ID != mir.offs[i].ID {
			return fmt.Errorf("live offer %d: book %s, mirror %s", i, o.ID, mir.offs[i].ID)
		}
	}

	st := bk.Stats()
	if got := st.MatchedRequests + st.CancelledRequests + st.ExpiredRequests +
		st.CarriedOutRequests + st.LiveRequests; got != st.InsertedRequests {
		return fmt.Errorf("request conservation broken: matched %d + cancelled %d + expired %d + carried-out %d + live %d != inserted %d",
			st.MatchedRequests, st.CancelledRequests, st.ExpiredRequests,
			st.CarriedOutRequests, st.LiveRequests, st.InsertedRequests)
	}
	if got := st.MatchedOffers + st.CancelledOffers + st.ExpiredOffers +
		st.CarriedOutOffers + st.LiveOffers; got != st.InsertedOffers {
		return fmt.Errorf("offer conservation broken: matched %d + cancelled %d + expired %d + carried-out %d + live %d != inserted %d",
			st.MatchedOffers, st.CancelledOffers, st.ExpiredOffers,
			st.CarriedOutOffers, st.LiveOffers, st.InsertedOffers)
	}
	return nil
}
