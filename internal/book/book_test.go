package book_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/auction/paralleltest"
	"decloud/internal/bidding"
	"decloud/internal/book"
	"decloud/internal/book/booktest"
	"decloud/internal/match"
	"decloud/internal/obs"
	"decloud/internal/resource"
	"decloud/internal/workload"
)

// TestBookDifferentialTraces is the tentpole proof: ≥50 randomized
// multi-epoch mutation traces, each replayed incrementally against the
// rebuild-from-scratch oracle at workers {1,4}, byte-identical outcomes
// at every clearing round. Run under -race by
// scripts/ci.sh.
func TestBookDifferentialTraces(t *testing.T) {
	traces := 52
	if testing.Short() {
		traces = 12
	}
	pool := booktest.NewPool(41, 90)
	rng := rand.New(rand.NewSource(1207))
	for i := 0; i < traces; i++ {
		raw := make([]byte, 60+rng.Intn(240))
		rng.Read(raw)
		ops := booktest.Decode(raw)
		maxCarry := 1 + rng.Intn(3)
		for _, workers := range []int{1, 4} {
			cfg := auction.DefaultConfig()
			cfg.Workers = workers
			if err := booktest.Replay(pool, ops, cfg, maxCarry); err != nil {
				t.Fatalf("trace %d (workers=%d carry=%d): %v", i, workers, maxCarry, err)
			}
		}
	}
}

// TestGeoFragmentedDifferentialTraces replays randomized mutation traces
// over a geo-fragmented market (several neighbourhoods that share no
// best offer, where the cluster builder walks its posting lists instead
// of scanning) byte-identically against the from-scratch oracle.
func TestGeoFragmentedDifferentialTraces(t *testing.T) {
	traces := 24
	if testing.Short() {
		traces = 8
	}
	pool := booktest.NewGeoPool(43, 80, 0.25)
	rng := rand.New(rand.NewSource(2903))
	for i := 0; i < traces; i++ {
		raw := make([]byte, 60+rng.Intn(240))
		rng.Read(raw)
		cfg := auction.DefaultConfig()
		cfg.Workers = 1 + i%4
		if err := booktest.Replay(pool, booktest.Decode(raw), cfg, 1+rng.Intn(3)); err != nil {
			t.Fatalf("geo trace %d: %v", i, err)
		}
	}
}

// TestIsolatedNeighbourhoodClearsLikeRun: a market with an isolated
// no-trade neighborhood (locality-constrained orders whose prices never
// cross) and a normal trading one. After the warm-up clear, the
// isolated neighbourhood is never touched again: its best sets and
// pre-passes come from the caches at every further clear, and the
// outcomes must stay identical to the from-scratch mechanism
// throughout.
func TestIsolatedNeighbourhoodClearsLikeRun(t *testing.T) {
	cfg := auction.DefaultConfig()
	cfg.Workers = 1
	bk := book.New(cfg)
	bk.MaxCarry = 50 // no carry-outs during the test window

	m := workload.Generate(workload.Config{Seed: 11, Requests: 24})

	// The isolated neighborhood: far outside the unit square, reachable
	// only by its own offers, request bids far below offer costs so no
	// mini-auction ever crosses.
	var isoReqs []bidding.OrderID
	for i := 0; i < 3; i++ {
		r := *m.Requests[i]
		r.ID = bidding.OrderID(fmt.Sprintf("iso-req-%d", i))
		r.Location = bidding.Location{X: 100, Y: 100}
		r.MaxDistance = 1
		r.Bid = 0.0001
		r.TrueValue = r.Bid
		isoReqs = append(isoReqs, r.ID)
		if !bk.InsertRequest(&r) {
			t.Fatalf("isolated request %d rejected", i)
		}
	}
	for i := 0; i < 2; i++ {
		o := *m.Offers[i]
		o.ID = bidding.OrderID(fmt.Sprintf("iso-off-%d", i))
		o.Location = bidding.Location{X: 100, Y: 100}
		o.Bid *= 1000
		o.TrueCost = o.Bid
		if !bk.InsertOffer(&o) {
			t.Fatalf("isolated offer %d rejected", i)
		}
	}
	// The trading neighborhood: the stock workload market.
	for _, r := range m.Requests {
		bk.InsertRequest(r)
	}
	for _, o := range m.Offers {
		bk.InsertOffer(o)
	}

	clearAndCheck := func(tag string) {
		liveR, liveO := bk.LiveRequests(), bk.LiveOffers()
		ocfg := cfg
		ocfg.Evidence = []byte(tag)
		want, err := paralleltest.MarshalOutcome(auction.Run(liveR, liveO, ocfg))
		if err != nil {
			t.Fatal(err)
		}
		got, err := paralleltest.MarshalOutcome(bk.Clear([]byte(tag)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: book outcome diverges from from-scratch mechanism:\nwant %s\ngot  %s", tag, want, got)
		}
	}

	clearAndCheck("warm")
	for round := 0; round < 3; round++ {
		clearAndCheck(fmt.Sprintf("steady-%d", round))
	}
	// The isolated neighborhood must still be live (nothing crossed).
	for _, id := range isoReqs {
		found := false
		for _, r := range bk.LiveRequests() {
			if r.ID == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("isolated request %s left the book", id)
		}
	}
}

// TestBookCarryAcrossEpochs pins the carry semantics down concretely:
// an unmatched order stays live for exactly MaxCarry+1 clears, then
// leaves as carried-out.
func TestBookCarryAcrossEpochs(t *testing.T) {
	cfg := auction.DefaultConfig()
	bk := book.New(cfg)
	bk.MaxCarry = 2

	m := workload.Generate(workload.Config{Seed: 7, Requests: 8})
	// A lone request with no supply side can never match.
	if !bk.InsertRequest(m.Requests[0]) {
		t.Fatal("insert rejected")
	}
	for round := 0; round < 3; round++ {
		if got := len(bk.LiveRequests()); got != 1 {
			t.Fatalf("round %d: want 1 live request, got %d", round, got)
		}
		out := bk.Clear([]byte(fmt.Sprintf("carry-%d", round)))
		if len(out.Matches) != 0 {
			t.Fatalf("round %d: unexpected match", round)
		}
	}
	if got := len(bk.LiveRequests()); got != 0 {
		t.Fatalf("want carried-out after MaxCarry+1 clears, got %d live", got)
	}
	st := bk.Stats()
	if st.CarriedOutRequests != 1 || st.InsertedRequests != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestBookRejectsAndDuplicates: invalid orders and live duplicates are
// rejected, and rejection is visible in the stats but never fatal.
func TestBookRejectsAndDuplicates(t *testing.T) {
	bk := book.New(auction.DefaultConfig())
	m := workload.Generate(workload.Config{Seed: 3, Requests: 4})

	if !bk.InsertRequest(m.Requests[0]) {
		t.Fatal("valid insert rejected")
	}
	if bk.InsertRequest(m.Requests[0]) {
		t.Fatal("live duplicate admitted")
	}
	bad := *m.Requests[1]
	bad.Start, bad.End = 100, 50
	if bk.InsertRequest(&bad) {
		t.Fatal("invalid order admitted")
	}
	st := bk.Stats()
	if st.InsertedRequests != 1 || st.RejectedRequests != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestBookPreviewIsSideEffectFree: a Preview must leave the live set,
// the stats, and future outcomes untouched.
func TestBookPreviewIsSideEffectFree(t *testing.T) {
	cfg := auction.DefaultConfig()
	m := workload.Generate(workload.Config{Seed: 11, Requests: 30})
	half := len(m.Requests) / 2

	seed := func() *book.Book {
		bk := book.New(cfg)
		for _, r := range m.Requests[:half] {
			bk.InsertRequest(r)
		}
		for _, o := range m.Offers {
			bk.InsertOffer(o)
		}
		bk.Clear([]byte("warm"))
		return bk
	}

	plain := seed()
	previewed := seed()
	pre := previewed.Stats()
	previewed.Preview(m.Requests[half:], nil, []byte("spec"))
	got := previewed.Stats()
	// A preview performs a trial clear, so the work diagnostics advance;
	// the conservation ledger must not.
	pre.Clears, got.Clears = 0, 0
	pre.Rescored, got.Rescored = 0, 0
	pre.FullRescores, got.FullRescores = 0, 0
	if got != pre {
		t.Fatalf("Preview mutated ledger stats: %+v -> %+v", pre, got)
	}

	a := plain.Clear([]byte("after"))
	b := previewed.Clear([]byte("after"))
	aj, _ := paralleltest.MarshalOutcome(a)
	bj, _ := paralleltest.MarshalOutcome(b)
	if !bytes.Equal(aj, bj) {
		t.Fatal("Preview leaked into a later clear")
	}
}

// TestBookIDReuseNeverReadsStaleEconomics: an order ID re-used with
// other contents must not be priced from the pre-pass cached for the
// old order. The warm-up is a Preview, so nothing leaves the book and
// every cluster's pre-pass is cached. Each case then re-uses one
// order's ID — a request's with a ten times higher bid, an offer's with
// a ten times lower one. The new order joins the same clusters under
// the same member IDs, so the cache's key does not move. The clear that
// follows must equal auction.Run over the live orders byte for byte.
func TestBookIDReuseNeverReadsStaleEconomics(t *testing.T) {
	cfg := auction.DefaultConfig()
	cfg.Workers = 1
	m := workload.Generate(workload.Config{Seed: 23, Requests: 20})
	check := func(id bidding.OrderID, reuse func(bk *book.Book) bool) {
		t.Helper()
		bk := book.New(cfg)
		for _, r := range m.Requests {
			bk.InsertRequest(r)
		}
		for _, o := range m.Offers {
			bk.InsertOffer(o)
		}
		bk.Preview(nil, nil, []byte("e0"))
		if !reuse(bk) {
			t.Fatalf("%s: re-use refused", id)
		}
		ocfg := cfg
		ocfg.Evidence = []byte("e1")
		want, _ := paralleltest.MarshalOutcome(auction.Run(bk.LiveRequests(), bk.LiveOffers(), ocfg))
		got, _ := paralleltest.MarshalOutcome(bk.Clear(ocfg.Evidence))
		if !bytes.Equal(want, got) {
			t.Fatalf("%s re-used with another bid: the clear diverges from auction.Run over the live orders", id)
		}
	}
	for _, old := range m.Requests {
		variant := *old
		variant.Bid *= 10
		variant.TrueValue = variant.Bid
		check(old.ID, func(bk *book.Book) bool { return bk.CancelRequest(old.ID) && bk.InsertRequest(&variant) })
	}
	for _, old := range m.Offers {
		variant := *old
		variant.Bid /= 10
		variant.TrueCost = variant.Bid
		check(old.ID, func(bk *book.Book) bool { return bk.CancelOffer(old.ID) && bk.InsertOffer(&variant) })
	}
}

// TestBookEconomicPropertiesOverCarriedOrders re-runs the mechanism's
// economic guarantees in the multi-epoch setting: with orders carried
// across clears, every epoch's outcome must still be strongly
// budget-balanced and individually rational, and no carried client can
// profit by shading its bid in a later epoch (DSIC re-checked against
// the carried market).
func TestBookEconomicPropertiesOverCarriedOrders(t *testing.T) {
	cfg := auction.DefaultConfig()
	m := workload.Generate(workload.Config{Seed: 67, Requests: 40})

	bk := book.New(cfg)
	bk.MaxCarry = 4
	for _, r := range m.Requests {
		bk.InsertRequest(r)
	}
	// Thin supply: only a third of the offers, so plenty of orders carry.
	for i, o := range m.Offers {
		if i%3 == 0 {
			bk.InsertOffer(o)
		}
	}

	for epoch := 0; epoch < 3; epoch++ {
		liveR, liveO := bk.LiveRequests(), bk.LiveOffers()
		evidence := []byte(fmt.Sprintf("carry-econ-%d", epoch))
		out := bk.Clear(evidence)

		// Strong budget balance: payments equal revenues per epoch.
		var pay, rev float64
		for _, p := range out.Payments {
			pay += p
		}
		for _, r := range out.Revenues {
			rev += r
		}
		if diff := pay - rev; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("epoch %d: budget not balanced: payments %v != revenues %v", epoch, pay, rev)
		}
		// Individual rationality against reported bids.
		for _, match := range out.Matches {
			if match.Payment > match.Request.Bid+1e-6 {
				t.Fatalf("epoch %d: client IR broken: pays %v above bid %v", epoch, match.Payment, match.Request.Bid)
			}
			if match.Payment < -1e-6 {
				t.Fatalf("epoch %d: negative payment %v", epoch, match.Payment)
			}
		}

		// DSIC over the carried market: a carried client shading or
		// inflating its bid in THIS epoch must not gain utility in it.
		// (The carried market is just another market; the mechanism's
		// per-epoch guarantee must survive the carry composition.)
		ocfg := cfg
		ocfg.Evidence = evidence
		checkEpochDSIC(t, epoch, liveR, liveO, out, ocfg)

		if len(bk.LiveRequests()) == 0 {
			break
		}
	}
}

func checkEpochDSIC(t *testing.T, epoch int, reqs []*bidding.Request, offs []*bidding.Offer, base *auction.Outcome, cfg auction.Config) {
	t.Helper()
	util := func(out *auction.Outcome, client bidding.ParticipantID) float64 {
		var u float64
		for _, m := range out.Matches {
			if m.Request.Client == client {
				u += m.Request.TrueValue - m.Payment
			}
		}
		return u
	}
	// Sample a handful of carried clients; full grids live in
	// internal/auction's property suite.
	for i := 0; i < len(reqs) && i < 5; i++ {
		truthful := util(base, reqs[i].Client)
		for _, dev := range []float64{0.5, 1.5} {
			mod := make([]*bidding.Request, len(reqs))
			for j, r := range reqs {
				cp := *r
				mod[j] = &cp
			}
			mod[i].Bid = reqs[i].TrueValue * dev
			out := auction.Run(mod, offs, cfg)
			// The paper's mechanism is approximately DSIC on
			// heterogeneous markets (exact on homogeneous ones); allow
			// the measured epsilon envelope used by the auction suite.
			if u := util(out, reqs[i].Client); u > truthful+0.05*(1+truthful) {
				t.Fatalf("epoch %d: carried client %s gains by deviating ×%v: %v > %v",
					epoch, reqs[i].Client, dev, u, truthful)
			}
		}
	}
}

// TestExpireByWatermarkConservation drives the round-loop expiry rule
// end to end: orders from an old epoch are applied, then a new epoch's
// arrivals advance the market clock (book.ArrivalWatermark) and
// ExpireBefore removes the stale survivors. The Stats conservation
// invariant — inserted = matched + cancelled + expired + carried-out +
// live, per side — must hold at every step, and the expired orders must
// be accounted as expired, not carried out.
func TestExpireByWatermarkConservation(t *testing.T) {
	cfg := auction.DefaultConfig()
	bk := book.New(cfg)
	bk.MaxCarry = 100 // carry must not race expiry in this test

	conserve := func(step string) {
		st := bk.Stats()
		if got := st.MatchedRequests + st.CancelledRequests + st.ExpiredRequests +
			st.CarriedOutRequests + st.LiveRequests; got != st.InsertedRequests {
			t.Fatalf("%s: request conservation broken: %+v", step, st)
		}
		if got := st.MatchedOffers + st.CancelledOffers + st.ExpiredOffers +
			st.CarriedOutOffers + st.LiveOffers; got != st.InsertedOffers {
			t.Fatalf("%s: offer conservation broken: %+v", step, st)
		}
	}

	mkReq := func(id string, start, end int64) *bidding.Request {
		return &bidding.Request{
			ID: bidding.OrderID(id), Client: "c",
			Resources: map[resource.Kind]float64{resource.CPU: 4},
			Start:     start, End: end, Duration: (end - start) / 2, Bid: 50,
		}
	}
	mkOff := func(id string, start, end int64) *bidding.Offer {
		return &bidding.Offer{
			ID: bidding.OrderID(id), Provider: "p",
			Resources: map[resource.Kind]float64{resource.CPU: 2},
			Start:     start, End: end, Bid: 1,
		}
	}

	// Epoch 0: an unmatchable request (no supply covers it) plus a lone
	// offer; both survive the clear as carried orders.
	epoch0 := bk.Apply([]*bidding.Request{mkReq("r-old", 0, 100)},
		[]*bidding.Offer{mkOff("o-old", 0, 90)}, []byte("e0"))
	if len(epoch0.Matches) != 0 {
		t.Fatalf("epoch 0: unexpected match")
	}
	conserve("epoch 0")
	if got := len(bk.LiveRequests()) + len(bk.LiveOffers()); got != 2 {
		t.Fatalf("epoch 0: want 2 carried orders, got %d", got)
	}

	// Epoch 1: arrivals start at t=200 — the watermark rule must expire
	// both stale survivors (End < 200), exactly as the round loops do.
	reqs := []*bidding.Request{mkReq("r-new", 200, 300)}
	offs := []*bidding.Offer{mkOff("o-new", 200, 310)}
	bk.Apply(reqs, offs, []byte("e1"))
	now, ok := book.ArrivalWatermark(reqs, offs)
	if !ok || now != 200 {
		t.Fatalf("watermark = %d, %v; want 200, true", now, ok)
	}
	if n := bk.ExpireBefore(now); n != 2 {
		t.Fatalf("expired %d orders, want 2", n)
	}
	conserve("epoch 1 expiry")
	st := bk.Stats()
	if st.ExpiredRequests != 1 || st.ExpiredOffers != 1 {
		t.Fatalf("expiry not attributed: %+v", st)
	}
	if st.CarriedOutRequests != 0 || st.CarriedOutOffers != 0 {
		t.Fatalf("expired orders leaked into carry-out: %+v", st)
	}

	// The next clear runs over the pruned live set and stays conserved.
	bk.Clear([]byte("e2"))
	conserve("epoch 2")
}

// TestArrivalWatermark pins the clock rule: minimum Start across both
// sides, false on an empty batch.
func TestArrivalWatermark(t *testing.T) {
	if _, ok := book.ArrivalWatermark(nil, nil); ok {
		t.Fatal("empty batch should not advance the clock")
	}
	r := &bidding.Request{Start: 50}
	o := &bidding.Offer{Start: 20}
	if now, ok := book.ArrivalWatermark([]*bidding.Request{r}, []*bidding.Offer{o}); !ok || now != 20 {
		t.Fatalf("watermark = %d, %v; want 20, true", now, ok)
	}
	if now, _ := book.ArrivalWatermark([]*bidding.Request{r}, nil); now != 50 {
		t.Fatalf("request-only watermark = %d; want 50", now)
	}
}

// TestArenaReuseVsFreshByteIdentical is the named determinism guard for
// the arena scratch layer (DESIGN.md §14): a long-lived book whose
// IndexScratch and cluster.Builder slabs are reused across epochs
// (arena ON) must produce outcomes byte-identical to auction.Run over
// the same union live set (arena OFF — a fresh index and builder with
// plain heap allocation every round), at workers {1,4}. Any stale bit
// leaking through a slab reset, any aliasing between epochs, and the
// bytes diverge.
func TestArenaReuseVsFreshByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := auction.DefaultConfig()
		cfg.Workers = workers
		bk := book.New(cfg)
		bk.MaxCarry = 2
		for epoch := 0; epoch < 4; epoch++ {
			m := workload.Generate(workload.Config{Seed: int64(100 + epoch), Requests: 40})
			ev := []byte(fmt.Sprintf("arena-guard-%d", epoch))

			prev, unionR, unionO := bk.Preview(m.Requests, m.Offers, ev)
			got := bk.Apply(m.Requests, m.Offers, ev)

			oracleCfg := cfg
			oracleCfg.Evidence = ev
			want := auction.Run(unionR, unionO, oracleCfg)

			pj, _ := paralleltest.MarshalOutcome(prev)
			gj, _ := paralleltest.MarshalOutcome(got)
			wj, _ := paralleltest.MarshalOutcome(want)
			if !bytes.Equal(pj, gj) {
				t.Fatalf("W=%d epoch %d: Preview and Apply disagree", workers, epoch)
			}
			if !bytes.Equal(gj, wj) {
				t.Fatalf("W=%d epoch %d: arena-backed clear diverges from fresh auction.Run", workers, epoch)
			}
			if len(got.Matches) == 0 {
				t.Fatalf("W=%d epoch %d: degenerate epoch, nothing matched", workers, epoch)
			}
		}
	}
}

// TestPrepassCacheNeverAliasesTheIndex: the pre-pass cache keeps each
// cluster's economics — its members' dense rows included — across
// clears, while the book Resets its index scratch at every clear. A
// cancel between two clears shifts the index position of every later
// order, under clusters whose membership is unchanged and so come from
// the cache. With heterogeneous resources, a cached cluster that read
// its rows through the index would pack other orders' quantities; the
// second clear must still equal auction.Run over the live orders.
func TestPrepassCacheNeverAliasesTheIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := auction.DefaultConfig()
		cfg.Workers = workers
		// A geo-fragmented market: the cancel changes its own
		// neighbourhood's clusters, every other neighbourhood's pre-passes
		// come from the cache. No two orders alike, so a row read at
		// another order's index position moves the clear.
		m := workload.Generate(workload.Config{Seed: 5, Requests: 120, GeoRadius: 0.2})
		for i, r := range m.Requests {
			r.Resources = r.Resources.Scale(1 + float64(i)/1024)
		}
		for j, o := range m.Offers {
			o.Resources = o.Resources.Scale(1 + float64(j)/1024)
		}
		bk := book.New(cfg)
		for _, r := range m.Requests {
			bk.InsertRequest(r)
		}
		for _, o := range m.Offers {
			bk.InsertOffer(o)
		}
		bk.Preview(nil, nil, []byte("epoch-0"))

		// Cancel the earliest request below every block maximum: it
		// moves every later request's index row, but not the scale,
		// which would flush the cache.
		reqs, offs := bk.LiveRequests(), bk.LiveOffers()
		maxima := match.BlockScale(reqs, offs)
		var victim *bidding.Request
		for _, r := range reqs {
			below := true
			for k, q := range r.Resources {
				below = below && q < maxima.Max(k)
			}
			if below && (victim == nil || r.Submitted < victim.Submitted) {
				victim = r
			}
		}
		if victim == nil || !bk.CancelRequest(victim.ID) {
			t.Fatal("no request to cancel")
		}

		ev := []byte("epoch-1")
		got, liveR, liveO := bk.Preview(nil, nil, ev)
		oracle := cfg
		oracle.Evidence = ev
		want := auction.Run(liveR, liveO, oracle)
		gj, _ := paralleltest.MarshalOutcome(got)
		wj, _ := paralleltest.MarshalOutcome(want)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("W=%d: the clear after the cancel diverges from auction.Run over the live orders", workers)
		}
		if len(got.Matches) == 0 {
			t.Fatalf("W=%d: degenerate market, nothing matched", workers)
		}
	}
}

// TestPrepassCacheFollowsTheKindTable: cached rows are laid out over the
// kind table of the clear that computed them. A kind too small to move
// the block scale (the book flushes on scale changes, to a 1e-9
// tolerance) still enters the table and shifts every later kind's
// index, so the cache must not be read under the new table.
func TestPrepassCacheFollowsTheKindTable(t *testing.T) {
	cfg := auction.DefaultConfig()
	cfg.Workers = 1
	m := workload.Generate(workload.Config{Seed: 9, Requests: 80, GeoRadius: 0.2})
	bk := book.New(cfg)
	for _, r := range m.Requests {
		bk.InsertRequest(r)
	}
	for _, o := range m.Offers {
		bk.InsertOffer(o)
	}
	bk.Preview(nil, nil, []byte("epoch-0"))

	tiny := *m.Requests[0]
	tiny.ID = "tiny-kind"
	tiny.Resources = tiny.Resources.Clone()
	tiny.Resources["a-tiny"] = 5e-10 // sorts first: every kind index moves
	if !bk.InsertRequest(&tiny) {
		t.Fatal("tiny-kind request refused")
	}
	ev := []byte("epoch-1")
	got, liveR, liveO := bk.Preview(nil, nil, ev)
	oracle := cfg
	oracle.Evidence = ev
	gj, _ := paralleltest.MarshalOutcome(got)
	wj, _ := paralleltest.MarshalOutcome(auction.Run(liveR, liveO, oracle))
	if !bytes.Equal(gj, wj) {
		t.Fatal("the clear after the kind table moved diverges from auction.Run over the live orders")
	}
}

// TestBookEconomicsMatchTheMapPath runs a book whose clears mix pre-pass
// cache hits and misses: the cache keeps each scale's table across
// clears, numbered again under every later clear's index. At every
// clear the outcome must equal the map-path economics
// (auction.RunReference) over the live orders, byte for byte. The
// orders vary the kinds they demand, so the clusters get several
// scales; arrivals, commits and cancels change some clusters and leave
// others to the cache.
func TestBookEconomicsMatchTheMapPath(t *testing.T) {
	for _, workers := range []int{1, 2} {
		m := workload.Generate(workload.Config{Seed: 3, Requests: 240, GeoRadius: 0.3})
		rnd := rand.New(rand.NewSource(3))
		for _, o := range m.Offers {
			o.Resources[resource.Disk] = 100 + 400*rnd.Float64()
		}
		for _, r := range m.Requests {
			switch rnd.Intn(3) {
			case 0:
				r.Resources[resource.Disk] = 1 + 10*rnd.Float64()
			case 1:
				delete(r.Resources, resource.RAM)
			}
		}
		cfg := auction.DefaultConfig()
		cfg.Workers = workers
		cfg.Obs = obs.NewMechanismMetrics(obs.NewRegistry())
		bk := book.New(cfg)
		for _, r := range m.Requests[:120] {
			bk.InsertRequest(r)
		}
		for _, o := range m.Offers {
			bk.InsertOffer(o)
		}
		hits, misses := false, false
		for clear, next := 0, 120; clear < 8; clear, next = clear+1, next+12 {
			arrivals := m.Requests[next : next+12]
			ev := []byte(fmt.Sprintf("clear-%d", clear))
			nu := cfg.Obs.NuEvaluations.Value()
			got, liveR, liveO := bk.Preview(arrivals, nil, ev)
			nu = cfg.Obs.NuEvaluations.Value() - nu

			oracle := auction.DefaultConfig()
			oracle.Evidence = ev
			want := auction.RunReference(liveR, liveO, oracle)
			gj, _ := paralleltest.MarshalOutcome(got)
			wj, _ := paralleltest.MarshalOutcome(want)
			if !bytes.Equal(gj, wj) {
				t.Fatalf("W=%d clear %d: the book diverges from the map-path economics over its live orders", workers, clear)
			}
			fresh := oracle
			fresh.Obs = obs.NewMechanismMetrics(obs.NewRegistry())
			auction.Run(liveR, liveO, fresh)
			hits = hits || nu < fresh.Obs.NuEvaluations.Value()
			misses = misses || nu > 0

			if clear%3 == 2 { // most clears only preview, as a producer prices a block
				bk.Apply(arrivals, nil, ev)
			}
			if live := bk.LiveRequests(); len(live) > 2 {
				bk.CancelRequest(live[rnd.Intn(len(live))].ID)
			}
		}
		if !hits || !misses {
			t.Fatalf("W=%d: cache hits seen %v, misses seen %v: the run does not exercise both", workers, hits, misses)
		}
	}
}
