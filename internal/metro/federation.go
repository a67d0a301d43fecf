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
	"decloud/internal/par"
)

func sha256sum(data []byte) [32]byte { return sha256.Sum256(data) }

// Config parameterizes a federation of metro exchanges.
type Config struct {
	// Metros is the exchange count M. Must be in [1, 64] (the visited
	// set of a spilled order is a 64-bit mask).
	Metros int

	// CellSize is the homing grid granularity; 0 means DefaultCellSize.
	CellSize float64

	// Latency is the inter-metro latency model. nil means
	// DefaultMatrix(Metros). Its dimension must equal Metros.
	Latency *LatencyMatrix

	// MaxHops bounds how many metros a spilled request may visit beyond
	// its home (the spill budget); 0 means DefaultMaxHops. A request
	// that exhausts its carry budget after MaxHops spills expires.
	MaxHops int

	// MaxSpillLatencyMS, when > 0, additionally expires a request whose
	// cumulative spill-path latency would exceed this cap.
	MaxSpillLatencyMS float64

	// DistancePerMS couples the latency matrix into the Eq. 18 locality
	// term: a spilled request with a MaxDistance constraint has it
	// tightened by DistancePerMS × path-latency, so a far metro sees a
	// strictly pickier request and the locality penalty of distance
	// survives federation. 0 disables the coupling.
	DistancePerMS float64

	// SettleEvery is the cross-settlement period in rounds: spill
	// inboxes flush into their target books every SettleEvery-th round.
	// 0 means 1 (every round).
	SettleEvery int

	// MaxCarry overrides the books' carry budget when > 0.
	MaxCarry int

	// Auction configures each exchange's book. A Metros override inside
	// it is ignored; the federation is the partitioner.
	Auction auction.Config

	// Workers bounds the parallelism of the per-metro clearing fan-out;
	// 0 means 1. Outcomes are byte-identical at any worker count.
	Workers int

	// Obs, when non-nil, receives federation metrics.
	Obs *obs.MetroMetrics

	// CaptureUnions, when true, records each round's per-metro cleared
	// order sets (live ∪ admitted) in the RoundResult so property tests
	// can re-audit every metro's outcome against the exact order set it
	// was computed over. Costs O(live) copies per round; off in
	// production paths.
	CaptureUnions bool
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
	latMS  float64 // latency of this hop
	pathMS float64 // cumulative path latency including this hop
}

// Exchange is one metro's market: a streaming order book plus the head
// hash of its outcome chain.
type Exchange struct {
	Metro int
	Book  *book.Book

	head  [32]byte
	inbox []spilled // requests spilled here, pending the next flush
}

// Head returns the exchange's current chain head hash.
func (e *Exchange) Head() [32]byte { return e.head }

// Federation runs M metro exchanges through deterministic
// cross-settlement rounds. Not safe for concurrent use; one Round at a
// time (the round itself parallelizes internally).
type Federation struct {
	cfg       Config
	exchanges []*Exchange
	round     int

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
	// UnionRequests/UnionOffers (CaptureUnions only) are the exact
	// order sets metro m's outcome was computed over.
	UnionRequests [][]*bidding.Request
	UnionOffers   [][]*bidding.Offer
}

// New builds a federation. The config is validated: M ∈ [1, 64] and the
// latency matrix (when given) must be M×M.
func New(cfg Config) (*Federation, error) {
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
	if !(cfg.CellSize > 0) {
		cfg.CellSize = DefaultCellSize
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = DefaultMaxHops
	}
	if cfg.SettleEvery <= 0 {
		cfg.SettleEvery = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	// Each exchange owns its whole metro: no nested federation, and the
	// book drives incremental clearing itself.
	bcfg := cfg.Auction
	bcfg.Incremental = false
	bcfg.Metros = 0

	f := &Federation{
		cfg:      cfg,
		reqState: make(map[bidding.OrderID]*orderState),
		offState: make(map[bidding.OrderID]*orderState),
	}
	fp := cfg.Latency.Fingerprint()
	for m := 0; m < cfg.Metros; m++ {
		b := book.New(bcfg)
		if cfg.MaxCarry > 0 {
			b.MaxCarry = cfg.MaxCarry
		}
		b.SetTrackRemovals(true)
		ex := &Exchange{Metro: m, Book: b}
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
		copy(ex.head[:], h.Sum(nil))
		f.exchanges = append(f.exchanges, ex)
	}
	return f, nil
}

// Metros returns the exchange count.
func (f *Federation) Metros() int { return len(f.exchanges) }

// Exchange returns metro m's exchange.
func (f *Federation) Exchange(m int) *Exchange { return f.exchanges[m] }

// Heads returns every exchange's chain head hash, indexed by metro.
func (f *Federation) Heads() [][32]byte {
	out := make([][32]byte, len(f.exchanges))
	for i, ex := range f.exchanges {
		out[i] = ex.head
	}
	return out
}

// Home maps a location to its metro under this federation's config.
func (f *Federation) Home(loc bidding.Location) int {
	return Home(loc, f.cfg.CellSize, len(f.exchanges))
}

// SettledIn reports where a request ended up: the metro it matched in
// and true, or -1 and false while it is live or after it expired.
func (f *Federation) SettledIn(id bidding.OrderID) (int, bool) {
	if st := f.reqState[id]; st != nil && st.fate == fateMatched {
		return st.metro, true
	}
	return -1, false
}

// Round executes one deterministic cross-settlement round: home the
// arrivals, flush due spill inboxes, clear every metro's book in
// parallel, then harvest fates and route carried-out requests to their
// next metro. Outcomes are byte-identical for a fixed (arrivals,
// evidence) sequence at any worker count.
func (f *Federation) Round(reqs []*bidding.Request, offs []*bidding.Offer, evidence []byte) (*RoundResult, error) {
	M := len(f.exchanges)
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

	// 2. Flush due spill inboxes into their target batches, in a
	// canonical order so the target book's insertion order — which the
	// mechanism's tie-breaks see — is independent of harvest order.
	if f.round%f.cfg.SettleEvery == 0 {
		for m, ex := range f.exchanges {
			if len(ex.inbox) == 0 {
				continue
			}
			sort.Slice(ex.inbox, func(a, b int) bool {
				sa, sb := ex.inbox[a], ex.inbox[b]
				if sa.from != sb.from {
					return sa.from < sb.from
				}
				return sa.r.ID < sb.r.ID
			})
			for _, sp := range ex.inbox {
				reqBatch[m] = append(reqBatch[m], sp.r)
				st := f.reqState[sp.r.ID]
				st.metro = m
				st.visited |= 1 << uint(m)
				st.pathMS = sp.pathMS
			}
			ex.inbox = ex.inbox[:0]
		}
	}

	// 3. Clear every metro in parallel. Each exchange's work is
	// self-contained (own book, own evidence stream), so the fan-out
	// cannot affect outcome bytes.
	res := &RoundResult{Round: f.round, Outcomes: make([]*auction.Outcome, M)}
	matchedLocal0, matchedSpill0 := f.stats.MatchedLocal, f.stats.MatchedSpill
	if f.cfg.CaptureUnions {
		res.UnionRequests = make([][]*bidding.Request, M)
		res.UnionOffers = make([][]*bidding.Offer, M)
	}
	removals := make([]book.Removals, M)
	par.ForEachWorker(f.cfg.Workers, M, func(_, m int) {
		ex := f.exchanges[m]
		ev := MetroEvidence(evidence, m, M)
		if f.cfg.CaptureUnions {
			// Union = carried live set ∪ this batch, in book order:
			// lives first (insertion order), then the batch.
			res.UnionRequests[m] = append(ex.Book.LiveRequests(), reqBatch[m]...)
			res.UnionOffers[m] = append(ex.Book.LiveOffers(), offBatch[m]...)
		}
		out := ex.Book.Apply(reqBatch[m], offBatch[m], ev)
		if now, ok := book.ArrivalWatermark(reqBatch[m], offBatch[m]); ok {
			ex.Book.ExpireBefore(now)
		}
		removals[m] = ex.Book.TakeRemovals()
		res.Outcomes[m] = out
	})

	// 4. Harvest serially in metro order: record fates, advance heads,
	// and route carried-out requests. Serial so spill routing — which
	// appends to sibling inboxes — is deterministic.
	for m, ex := range f.exchanges {
		out := res.Outcomes[m]
		for _, id := range out.RejectedRequests {
			// A rejection can only hit a fresh arrival (spilled orders
			// were already validated at first admission).
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

		rem := removals[m]
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
		h.Write(ex.head[:])
		h.Write(enc)
		copy(ex.head[:], h.Sum(nil))

		if mm := f.cfg.Obs; mm != nil {
			mm.Welfare[m].Set(out.BidWelfare())
			st := ex.Book.Stats()
			mm.LiveOrders[m].Set(float64(st.LiveRequests + st.LiveOffers))
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

// spillOrExpire routes one carried-out request to its next metro, or
// expires it when no viable neighbor exists. The candidate order is the
// latency matrix's neighbor preference (ascending latency, index
// tie-break) filtered by the visited mask; budgets are checked against
// the best candidate only — latency tightening is monotone in the
// neighbor's latency, so if the nearest unvisited metro fails a budget,
// every farther one does too.
func (f *Federation) spillOrExpire(r *bidding.Request, st *orderState, from int, res *RoundResult) {
	expire := func() {
		st.fate = fateExpired
		f.stats.ExpiredRequests++
		res.SpillExpired++
	}
	if st.hops >= f.cfg.MaxHops {
		expire()
		return
	}
	for _, to := range f.cfg.Latency.Neighbors(from) {
		if st.visited&(1<<uint(to)) != 0 {
			continue
		}
		lat := f.cfg.Latency.Latency(from, to)
		pathMS := st.pathMS + lat
		if f.cfg.MaxSpillLatencyMS > 0 && pathMS > f.cfg.MaxSpillLatencyMS {
			break // monotone: every later candidate is farther
		}
		rr := *r
		if f.cfg.DistancePerMS > 0 && rr.MaxDistance > 0 {
			// Eq. 18 locality coupling: the path latency consumes part
			// of the request's distance tolerance. A request whose
			// tolerance is fully spent cannot be served remotely at
			// all — expire instead of admitting an unmatchable order.
			rr.MaxDistance -= f.cfg.DistancePerMS * pathMS
			if rr.MaxDistance <= 0 {
				break // monotone: farther candidates only tighten more
			}
		}
		st.hops++
		st.pathMS = pathMS
		f.exchanges[to].inbox = append(f.exchanges[to].inbox, spilled{
			r: &rr, from: from, latMS: lat, pathMS: pathMS,
		})
		res.Spilled++
		if mm := f.cfg.Obs; mm != nil {
			mm.SpillMS[from].Set(pathMS)
		}
		return
	}
	expire()
}

// Stats returns the federation's conservation counters with Live
// recomputed from the actual books and inboxes (ground truth, not the
// state machine).
func (f *Federation) Stats() Stats {
	s := f.stats
	return s
}

// LiveRequests / LiveOffers count orders currently held by a book or a
// spill inbox.
func (f *Federation) liveCounts() (liveR, liveO int) {
	for _, ex := range f.exchanges {
		st := ex.Book.Stats()
		liveR += st.LiveRequests
		liveO += st.LiveOffers
		liveR += len(ex.inbox)
	}
	return liveR, liveO
}

// CheckConservation verifies the federation-wide conservation
// invariant on both sides of the market:
//
//	Submitted == Rejected + Matched(local+spill) + Expired + Live
//
// with Live counted from the actual books and inboxes, and
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
	for m, ex := range f.exchanges {
		for _, r := range ex.Book.LiveRequests() {
			if prev, dup := seen[r.ID]; dup {
				return fmt.Errorf("metro: request %s live in metros %d and %d", r.ID, prev, m)
			}
			seen[r.ID] = m
			if st := f.reqState[r.ID]; st == nil || st.fate != fateLive {
				return fmt.Errorf("metro: request %s live in metro %d but tracked fate is not live", r.ID, m)
			}
		}
		for _, sp := range ex.inbox {
			if prev, dup := seen[sp.r.ID]; dup {
				return fmt.Errorf("metro: request %s in metro %d inbox but also live in metro %d", sp.r.ID, m, prev)
			}
			seen[sp.r.ID] = m
		}
	}
	return nil
}

// TotalWelfare sums realized welfare over a round's outcomes.
func (r *RoundResult) TotalWelfare() float64 {
	var w float64
	for _, out := range r.Outcomes {
		if out != nil {
			w += out.Welfare()
		}
	}
	return w
}

// Matched counts trades across a round's outcomes.
func (r *RoundResult) Matched() int {
	n := 0
	for _, out := range r.Outcomes {
		if out != nil {
			n += len(out.Matches)
		}
	}
	return n
}
