package metro

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/book"
	"decloud/internal/ledger"
	"decloud/internal/obs"
)

func sha256sum(data []byte) [32]byte { return sha256.Sum256(data) }

// Config parameterizes a federation of metro exchanges.
type Config struct {
	// Metros is the exchange count M. Must be in [1, 64] (the visited
	// set of a spilled order is a 64-bit mask).
	Metros int

	// Latency is the inter-metro latency model. nil means
	// DefaultMatrix(Metros). Its dimension must equal Metros.
	Latency *LatencyMatrix

	// MaxHops bounds how many metros a spilled request may visit beyond
	// its home (the spill budget); 0 means DefaultMaxHops. A request
	// that exhausts its carry budget after MaxHops spills expires.
	MaxHops int

	// DistancePerMS couples the latency matrix into the Eq. 18 locality
	// term: a spilled request with a MaxDistance constraint has it
	// tightened by DistancePerMS × its spill path's total latency (each
	// leg charged once, on the hop that takes it), so a far metro sees a
	// strictly pickier request and the locality penalty of distance
	// survives federation. 0 disables the coupling.
	DistancePerMS float64

	// MaxCarry overrides the books' carry budget when > 0, and Auction
	// configures each exchange's book — where New builds the books;
	// exchanges handed to New bring their own.
	MaxCarry int
	Auction  auction.Config

	// Obs, when non-nil, receives federation metrics.
	Obs *obs.MetroMetrics
}

// DefaultMaxHops is the spill budget: a request visits at most its home
// plus two neighbor metros before expiring.
const DefaultMaxHops = 2

// orderState tracks one order's lifecycle across the federation for the
// conservation audit: where it was first homed, where it is now, how
// far it has spilled, and how it left the market (if it has).
type orderState struct {
	origin  int    // home metro at submission
	metro   int    // current metro
	hops    int    // spills taken so far
	visited uint64 // bitmask of metros this order's book has held it in
	pathMS  float64
	fate    int8 // live | matched | expired | rejected
}

const (
	fateLive int8 = iota
	fateMatched
	fateExpired
	fateRejected
)

// spilled is a request in flight between two exchanges: removed from
// the origin book (carry budget exhausted), waiting in the target
// metro's inbox for the next cross-settlement flush.
type spilled struct {
	r      *bidding.Request
	from   int
	pathMS float64 // cumulative path latency including this hop
}

// Exchange is the one thing the federation needs from a metro's market,
// whatever runs it: an order book in process (what New builds by
// default), a miner network with its own chain (internal/sim), a script
// in a routing test. The federation homes, routes and audits; the
// exchange carries and clears.
type Exchange interface {
	// Clear admits the round's batch — the arrivals homed here, then the
	// requests spilled in from sibling metros, in that order — into the
	// carried market, clears it under the evidence and commits. It
	// returns what cleared and what left the market involuntarily since
	// the last call. A nil outcome means there was nothing to clear and
	// no block was cut: the round leaves the exchange as it was. An
	// order of the batch the exchange could not admit must be listed in
	// the outcome's Rejected IDs — whatever is neither rejected, matched,
	// removed nor live afterwards is a lost order, which
	// CheckConservation reports. The slices are only valid for the call.
	Clear(reqs []*bidding.Request, offs []*bidding.Offer, spilledIn []*bidding.Request, evidence []byte) (*auction.Outcome, book.Removals, error)
	// LiveRequests and LiveOffers are the carried market, in the
	// exchange's own deterministic order.
	LiveRequests() []*bidding.Request
	LiveOffers() []*bidding.Offer
}

// bookExchange is an Exchange over one streaming order book.
type bookExchange struct{ *book.Book }

func (x bookExchange) Clear(reqs []*bidding.Request, offs []*bidding.Offer, spilledIn []*bidding.Request, evidence []byte) (*auction.Outcome, book.Removals, error) {
	reqs = append(reqs, spilledIn...)
	out := x.Apply(reqs, offs, evidence)
	x.AdvanceClock(reqs, offs)
	return out, x.TakeRemovals(), nil
}

// metroState is one metro inside the federation: its exchange, the head
// hash of its outcome chain, and the requests spilled to it.
type metroState struct {
	ex      Exchange
	head    [32]byte
	inbox   []spilled          // pending the next round's flush
	spillIn []*bidding.Request // the flushed inbox, reused across rounds
}

// Federation runs M metro exchanges through deterministic
// cross-settlement rounds. Not safe for concurrent use; one Round at a
// time.
type Federation struct {
	cfg    Config
	metros []*metroState
	round  int

	reqState map[bidding.OrderID]*orderState
	offState map[bidding.OrderID]*orderState

	stats Stats
}

// Stats are the federation's conservation counters, aggregated across
// exchanges. Conservation (CheckConservation) holds per side:
//
//	Submitted == Rejected + MatchedLocal + MatchedSpill + Expired + Live
//
// where Live counts orders sitting in books or spill inboxes.
type Stats struct {
	Rounds int

	SubmittedRequests int
	RejectedRequests  int
	MatchedLocal      int // requests matched in their home metro
	MatchedSpill      int // requests matched after ≥1 spill
	ExpiredRequests   int // time-window, carry, hop, or latency expiry
	Spills            int // request hops taken
	SpillExpired      int // requests that died with no spill candidate

	SubmittedOffers int
	RejectedOffers  int
	MatchedOffers   int
	ExpiredOffers   int // offers never spill: carry-out == expiry
}

// RoundResult is one cross-settlement round's output.
type RoundResult struct {
	Round int
	// Outcomes[m] is metro m's clearing outcome this round.
	Outcomes []*auction.Outcome
	// Spilled counts request hops initiated this round; SpillExpired
	// counts requests that exhausted their budget with no viable
	// neighbor.
	Spilled      int
	SpillExpired int
	// UnionRequests/UnionOffers are the exact order sets metro m's
	// outcome was computed over (live ∪ admitted): property tests
	// re-audit every outcome against them, and the simulator folds its
	// metrics over them. They cost O(live) copies per round.
	UnionRequests [][]*bidding.Request
	UnionOffers   [][]*bidding.Offer
}

// New builds a federation over the given exchanges, one per metro in
// metro order; with none it builds an order book per metro from
// cfg.Auction and cfg.MaxCarry. The config is validated: M ∈ [1, 64],
// the latency matrix (when given) must be M×M, and the exchanges (when
// given) must number M.
func New(cfg Config, exchanges ...Exchange) (*Federation, error) {
	if cfg.Metros < 1 {
		cfg.Metros = 1
	}
	if cfg.Metros > 64 {
		return nil, fmt.Errorf("metro: %d metros exceeds the 64-metro visited-mask limit", cfg.Metros)
	}
	if cfg.Latency == nil {
		cfg.Latency = DefaultMatrix(cfg.Metros)
	}
	if err := cfg.Latency.Validate(); err != nil {
		return nil, err
	}
	if got := cfg.Latency.Metros(); got != cfg.Metros {
		return nil, fmt.Errorf("metro: latency matrix is %d×%d, want %d×%d", got, got, cfg.Metros, cfg.Metros)
	}
	if len(exchanges) != 0 && len(exchanges) != cfg.Metros {
		return nil, fmt.Errorf("metro: %d exchanges for %d metros", len(exchanges), cfg.Metros)
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = DefaultMaxHops
	}

	f := &Federation{
		cfg:      cfg,
		reqState: make(map[bidding.OrderID]*orderState),
		offState: make(map[bidding.OrderID]*orderState),
	}
	fp := cfg.Latency.Fingerprint()
	for m := 0; m < cfg.Metros; m++ {
		ms := &metroState{}
		if len(exchanges) != 0 {
			ms.ex = exchanges[m]
		} else {
			b := book.New(cfg.Auction)
			if cfg.MaxCarry > 0 {
				b.MaxCarry = cfg.MaxCarry
			}
			b.SetTrackRemovals(true)
			ms.ex = bookExchange{b}
		}
		// Seed each chain head with the federation shape and the
		// latency matrix so two exchanges disagreeing on either can
		// never converge to the same chain.
		h := sha256.New()
		h.Write([]byte(evidenceDomain + "/head"))
		h.Write(fp[:])
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[0:8], uint64(m))
		binary.BigEndian.PutUint64(buf[8:16], uint64(cfg.Metros))
		h.Write(buf[:])
		copy(ms.head[:], h.Sum(nil))
		f.metros = append(f.metros, ms)
	}
	return f, nil
}

// Metros returns the exchange count.
func (f *Federation) Metros() int { return len(f.metros) }

// Exchange returns metro m's exchange.
func (f *Federation) Exchange(m int) Exchange { return f.metros[m].ex }

// Heads returns every exchange's chain head hash, indexed by metro.
func (f *Federation) Heads() [][32]byte {
	out := make([][32]byte, len(f.metros))
	for i, ms := range f.metros {
		out[i] = ms.head
	}
	return out
}

// Home maps a location to its metro.
func (f *Federation) Home(loc bidding.Location) int {
	return Home(loc, DefaultCellSize, len(f.metros))
}

// SettledIn reports where a request ended up: the metro it matched in
// and true, or -1 and false while it is live or after it expired.
func (f *Federation) SettledIn(id bidding.OrderID) (int, bool) {
	if st := f.reqState[id]; st != nil && st.fate == fateMatched {
		return st.metro, true
	}
	return -1, false
}

// Origin reports the metro a request was homed to at submission — where
// its client's future requests will be scored, so where a deny on a
// spilled match must be remembered. False for an ID never submitted.
func (f *Federation) Origin(id bidding.OrderID) (int, bool) {
	if st := f.reqState[id]; st != nil {
		return st.origin, true
	}
	return -1, false
}

// Round executes one deterministic cross-settlement round: home the
// arrivals, flush the spill inboxes, clear every metro's exchange in
// metro order, then harvest fates and route carried-out requests to
// their next metro. Each exchange's clear spreads over every core
// through its own auction.Config.Workers.
func (f *Federation) Round(reqs []*bidding.Request, offs []*bidding.Offer, evidence []byte) (*RoundResult, error) {
	M := len(f.metros)
	f.round++
	f.stats.Rounds++

	// 1. Home arrivals. An ID already tracked by the federation is a
	// duplicate submission: dropped here (counted rejected) so it can
	// never fork into two metros' books.
	reqBatch := make([][]*bidding.Request, M)
	offBatch := make([][]*bidding.Offer, M)
	for _, r := range reqs {
		if f.reqState[r.ID] != nil {
			f.stats.SubmittedRequests++
			f.stats.RejectedRequests++
			continue
		}
		m := f.Home(r.Location)
		reqBatch[m] = append(reqBatch[m], r)
		f.reqState[r.ID] = &orderState{origin: m, metro: m, visited: 1 << uint(m)}
		f.stats.SubmittedRequests++
	}
	for _, o := range offs {
		if f.offState[o.ID] != nil {
			f.stats.SubmittedOffers++
			f.stats.RejectedOffers++
			continue
		}
		m := f.Home(o.Location)
		offBatch[m] = append(offBatch[m], o)
		f.offState[o.ID] = &orderState{origin: m, metro: m, visited: 1 << uint(m)}
		f.stats.SubmittedOffers++
	}

	// 2. Flush the spill inboxes, each in a canonical order so the
	// target market's insertion order — which the mechanism's tie-breaks
	// see — is independent of harvest order.
	for m, ms := range f.metros {
		ms.spillIn = ms.spillIn[:0]
		if len(ms.inbox) == 0 {
			continue
		}
		sort.Slice(ms.inbox, func(a, b int) bool {
			sa, sb := ms.inbox[a], ms.inbox[b]
			if sa.from != sb.from {
				return sa.from < sb.from
			}
			return sa.r.ID < sb.r.ID
		})
		for _, sp := range ms.inbox {
			ms.spillIn = append(ms.spillIn, sp.r)
			st := f.reqState[sp.r.ID]
			st.metro = m
			st.visited |= 1 << uint(m)
			st.pathMS = sp.pathMS
		}
		ms.inbox = ms.inbox[:0]
	}

	// 3. Clear every metro in metro order. Each exchange's work is
	// self-contained (own market, own evidence stream).
	res := &RoundResult{
		Round: f.round, Outcomes: make([]*auction.Outcome, M),
		UnionRequests: make([][]*bidding.Request, M), UnionOffers: make([][]*bidding.Offer, M),
	}
	matchedLocal0, matchedSpill0 := f.stats.MatchedLocal, f.stats.MatchedSpill
	cleared := make([]struct {
		rem book.Removals
		err error
	}, M)
	for m, ms := range f.metros {
		// Union = carried live set ∪ this batch, in market order: lives
		// first (insertion order), then the batch.
		res.UnionRequests[m] = append(append(ms.ex.LiveRequests(), reqBatch[m]...), ms.spillIn...)
		res.UnionOffers[m] = append(ms.ex.LiveOffers(), offBatch[m]...)
		res.Outcomes[m], cleared[m].rem, cleared[m].err = ms.ex.Clear(reqBatch[m], offBatch[m], ms.spillIn, MetroEvidence(evidence, m, M))
	}

	// 4. Harvest in metro order: record fates, advance heads, and route
	// carried-out requests.
	for m, ms := range f.metros {
		if err := cleared[m].err; err != nil {
			return nil, fmt.Errorf("metro %d: %w", m, err)
		}
		out := res.Outcomes[m]
		if out == nil {
			// Nothing to clear, no block: the exchange is where it was.
			continue
		}
		for _, id := range out.RejectedRequests {
			if st := f.reqState[id]; st != nil && st.fate == fateLive {
				st.fate = fateRejected
				f.stats.RejectedRequests++
			}
		}
		for _, id := range out.RejectedOffers {
			if st := f.offState[id]; st != nil && st.fate == fateLive {
				st.fate = fateRejected
				f.stats.RejectedOffers++
			}
		}
		for i := range out.Matches {
			mt := &out.Matches[i]
			if st := f.reqState[mt.Request.ID]; st != nil && st.fate == fateLive {
				st.fate = fateMatched
				st.metro = m
				if st.hops == 0 {
					f.stats.MatchedLocal++
				} else {
					f.stats.MatchedSpill++
				}
			}
			if st := f.offState[mt.Offer.ID]; st != nil && st.fate != fateMatched {
				// Offers are divisible across matches; count once.
				st.fate = fateMatched
				f.stats.MatchedOffers++
			}
		}

		rem := cleared[m].rem
		for _, id := range rem.ExpiredRequests {
			if st := f.reqState[id]; st != nil && st.fate == fateLive {
				st.fate = fateExpired
				f.stats.ExpiredRequests++
			}
		}
		for _, id := range rem.ExpiredOffers {
			if st := f.offState[id]; st != nil && st.fate == fateLive {
				st.fate = fateExpired
				f.stats.ExpiredOffers++
			}
		}
		// Offers never spill: the machines they describe are bolted to
		// their metro. Carry-out is terminal.
		for _, o := range rem.CarriedOffers {
			if st := f.offState[o.ID]; st != nil && st.fate == fateLive {
				st.fate = fateExpired
				f.stats.ExpiredOffers++
			}
		}
		// Carried-out requests spill: the local exchange could not fill
		// them within the carry budget, so they try the lowest-latency
		// unvisited neighbor — unless the hop or latency budget is
		// spent, in which case they expire here.
		for _, r := range rem.CarriedRequests {
			st := f.reqState[r.ID]
			if st == nil || st.fate != fateLive {
				continue
			}
			f.spillOrExpire(r, st, m, res)
		}

		// Advance the chain head over the canonical outcome encoding.
		enc, err := ledger.EncodeAllocation(out)
		if err != nil {
			return nil, fmt.Errorf("metro %d: encode outcome: %w", m, err)
		}
		h := sha256.New()
		h.Write(ms.head[:])
		h.Write(enc)
		copy(ms.head[:], h.Sum(nil))

		if mm := f.cfg.Obs; mm != nil {
			mm.Welfare[m].Set(out.BidWelfare())
			mm.LiveOrders[m].Set(float64(len(ms.ex.LiveRequests()) + len(ms.ex.LiveOffers())))
		}
	}

	f.stats.Spills += res.Spilled
	f.stats.SpillExpired += res.SpillExpired
	if mm := f.cfg.Obs; mm != nil {
		mm.Rounds.Inc()
		mm.Spills.Add(int64(res.Spilled))
		mm.SpillExpired.Add(int64(res.SpillExpired))
		mm.MatchedLocal.Add(int64(f.stats.MatchedLocal - matchedLocal0))
		mm.MatchedSpill.Add(int64(f.stats.MatchedSpill - matchedSpill0))
	}
	return res, nil
}

// spillOrExpire routes one carried-out request to its next metro
// (LatencyMatrix.SpillTarget), or expires it when the hop budget is
// spent, every metro has been visited, or the target's latency spends
// the request's distance tolerance. Latency tightening is monotone in
// the neighbor's latency, so if the nearest unvisited metro fails the
// tolerance, every farther one does too.
func (f *Federation) spillOrExpire(r *bidding.Request, st *orderState, from int, res *RoundResult) {
	to, ok := f.cfg.Latency.SpillTarget(from, st.visited)
	rr := *r
	legMS := f.cfg.Latency.Latency(from, to)
	if ok && f.cfg.DistancePerMS > 0 && rr.MaxDistance > 0 {
		// Eq. 18 locality coupling: the path latency consumes part of
		// the request's distance tolerance, each leg once (r paid for the
		// earlier ones). A request whose tolerance is fully spent cannot
		// be served remotely at all — expire instead of admitting an
		// unmatchable order.
		rr.MaxDistance -= f.cfg.DistancePerMS * legMS
		ok = rr.MaxDistance > 0
	}
	if !ok || st.hops >= f.cfg.MaxHops {
		st.fate = fateExpired
		f.stats.ExpiredRequests++
		res.SpillExpired++
		return
	}
	st.hops++
	st.pathMS += legMS
	f.metros[to].inbox = append(f.metros[to].inbox, spilled{r: &rr, from: from, pathMS: st.pathMS})
	res.Spilled++
	if mm := f.cfg.Obs; mm != nil {
		mm.SpillMS[from].Set(st.pathMS)
	}
}

// Stats returns the federation's conservation counters. They carry no
// live count: CheckConservation takes that from the exchanges and the
// inboxes themselves.
func (f *Federation) Stats() Stats { return f.stats }

// liveCounts counts the orders currently held by an exchange or a spill
// inbox.
func (f *Federation) liveCounts() (liveR, liveO int) {
	for _, ms := range f.metros {
		liveR += len(ms.ex.LiveRequests()) + len(ms.inbox)
		liveO += len(ms.ex.LiveOffers())
	}
	return liveR, liveO
}

// CheckConservation verifies the federation-wide conservation
// invariant on both sides of the market:
//
//	Submitted == Rejected + Matched(local+spill) + Expired + Live
//
// with Live counted from the actual exchanges and inboxes, and
// cross-checks it against the per-order state machine (each tracked
// order has exactly one terminal fate; no order is live in two books).
func (f *Federation) CheckConservation() error {
	liveR, liveO := f.liveCounts()
	s := f.stats
	if got, want := s.RejectedRequests+s.MatchedLocal+s.MatchedSpill+s.ExpiredRequests+liveR, s.SubmittedRequests; got != want {
		return fmt.Errorf("metro: request conservation: rejected %d + matched %d+%d + expired %d + live %d = %d, want submitted %d",
			s.RejectedRequests, s.MatchedLocal, s.MatchedSpill, s.ExpiredRequests, liveR, got, want)
	}
	if got, want := s.RejectedOffers+s.MatchedOffers+s.ExpiredOffers+liveO, s.SubmittedOffers; got != want {
		return fmt.Errorf("metro: offer conservation: rejected %d + matched %d + expired %d + live %d = %d, want submitted %d",
			s.RejectedOffers, s.MatchedOffers, s.ExpiredOffers, liveO, got, want)
	}

	// Cross-check the state machine against the counters.
	var mr, ms, er, rr, lr int
	for _, st := range f.reqState {
		switch st.fate {
		case fateMatched:
			if st.hops == 0 {
				mr++
			} else {
				ms++
			}
		case fateExpired:
			er++
		case fateRejected:
			rr++
		case fateLive:
			lr++
		}
	}
	if mr != s.MatchedLocal || ms != s.MatchedSpill || er != s.ExpiredRequests || lr != liveR {
		return fmt.Errorf("metro: request state machine (local %d spill %d expired %d live %d) disagrees with counters (local %d spill %d expired %d live %d)",
			mr, ms, er, lr, s.MatchedLocal, s.MatchedSpill, s.ExpiredRequests, liveR)
	}
	// Duplicate-submission rejections never enter the state machine, so
	// rr only lower-bounds the counter.
	if rr > s.RejectedRequests {
		return fmt.Errorf("metro: %d rejected request states exceed counter %d", rr, s.RejectedRequests)
	}

	// No order may be live in two books: every live ID resolves to
	// exactly one exchange, and its tracked metro agrees.
	seen := make(map[bidding.OrderID]int)
	for m, ms := range f.metros {
		for _, r := range ms.ex.LiveRequests() {
			if prev, dup := seen[r.ID]; dup {
				return fmt.Errorf("metro: request %s live in metros %d and %d", r.ID, prev, m)
			}
			seen[r.ID] = m
			if st := f.reqState[r.ID]; st == nil || st.fate != fateLive {
				return fmt.Errorf("metro: request %s live in metro %d but tracked fate is not live", r.ID, m)
			}
		}
		for _, sp := range ms.inbox {
			if prev, dup := seen[sp.r.ID]; dup {
				return fmt.Errorf("metro: request %s in metro %d inbox but also live in metro %d", sp.r.ID, m, prev)
			}
			seen[sp.r.ID] = m
		}
	}
	return nil
}
