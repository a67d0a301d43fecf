package metro

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/book"
	"decloud/internal/resource"
)

// scripted is an Exchange with no book and no chain: the test declares
// which live requests match and which stay; every other request carries
// out at the first clear that holds it. It logs each clear's batch in
// admission order, which is all a routing assertion needs.
type scripted struct {
	liveR []*bidding.Request
	liveO []*bidding.Offer
	match map[bidding.OrderID]bool // matched by the next clear holding them
	keep  map[bidding.OrderID]bool // carried in the market, never out
	// batches[i] is the i-th clear's admitted requests: arrivals, then
	// spilled-in.
	batches [][]*bidding.Request
	idle    bool  // cut no block: nil outcome, batch untouched
	lose    bool  // swallow the batch without a trace (a broken exchange)
	err     error // fail the clear
}

func (x *scripted) Clear(reqs []*bidding.Request, offs []*bidding.Offer, spilledIn []*bidding.Request, _ []byte) (*auction.Outcome, book.Removals, error) {
	if x.err != nil {
		return nil, book.Removals{}, x.err
	}
	if x.idle {
		return nil, book.Removals{}, nil
	}
	batch := append(append([]*bidding.Request{}, reqs...), spilledIn...)
	x.batches = append(x.batches, batch)
	if x.lose {
		return &auction.Outcome{}, book.Removals{}, nil
	}
	x.liveO = append(x.liveO, offs...)
	out := &auction.Outcome{}
	var rem book.Removals
	var stay []*bidding.Request
	for _, r := range append(x.liveR, batch...) {
		switch {
		case x.match[r.ID]:
			out.Matches = append(out.Matches, auction.Match{Request: r, Offer: &bidding.Offer{ID: "o-script"}})
		case x.keep[r.ID]:
			stay = append(stay, r)
		default:
			rem.CarriedRequests = append(rem.CarriedRequests, r)
		}
	}
	x.liveR = stay
	return out, rem, nil
}

func (x *scripted) LiveRequests() []*bidding.Request { return x.liveR }
func (x *scripted) LiveOffers() []*bidding.Offer     { return x.liveO }

// lastBatch returns the IDs of the exchange's latest clear, in admission
// order.
func (x *scripted) lastBatch() []bidding.OrderID {
	var ids []bidding.OrderID
	if len(x.batches) > 0 {
		for _, r := range x.batches[len(x.batches)-1] {
			ids = append(ids, r.ID)
		}
	}
	return ids
}

// scriptedFed builds a federation over scripted exchanges.
func scriptedFed(t *testing.T, cfg Config) (*Federation, []*scripted) {
	t.Helper()
	xs := make([]*scripted, cfg.Metros)
	exchanges := make([]Exchange, cfg.Metros)
	for m := range xs {
		xs[m] = &scripted{match: map[bidding.OrderID]bool{}, keep: map[bidding.OrderID]bool{}}
		exchanges[m] = xs[m]
	}
	f, err := New(cfg, exchanges...)
	if err != nil {
		t.Fatal(err)
	}
	return f, xs
}

// locIn returns a location the federation homes to metro m.
func locIn(t *testing.T, f *Federation, m int) bidding.Location {
	t.Helper()
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			loc := bidding.Location{X: (float64(i) + 0.5) * DefaultCellSize, Y: (float64(j) + 0.5) * DefaultCellSize}
			if f.Home(loc) == m {
				return loc
			}
		}
	}
	t.Fatalf("no cell homes to metro %d", m)
	return bidding.Location{}
}

func scriptReq(id string, loc bidding.Location, maxDist float64) *bidding.Request {
	return &bidding.Request{
		ID: bidding.OrderID(id), Client: "c", Location: loc, MaxDistance: maxDist,
		Resources: resource.Vector{resource.CPU: 1}, Start: 0, End: 10, Duration: 10, Bid: 1,
	}
}

// round runs one federation round and audits conservation after it.
func round(t *testing.T, f *Federation, reqs ...*bidding.Request) *RoundResult {
	t.Helper()
	res, err := f.Round(reqs, nil, []byte("routing"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	return res
}

// holder returns the metro whose latest clear admitted id, or -1.
func holder(xs []*scripted, rounds int, id bidding.OrderID) int {
	for m, x := range xs {
		if len(x.batches) == rounds {
			for _, got := range x.lastBatch() {
				if got == id {
					return m
				}
			}
		}
	}
	return -1
}

// ringless is a non-uniform, asymmetric 4-metro matrix:
// Neighbors(0) = [2 3 1], Neighbors(2) = [0 1 3], Neighbors(1) = [3 0 2].
func ringless() *LatencyMatrix {
	return &LatencyMatrix{MS: [][]float64{
		{0, 30, 5, 20},
		{8, 0, 40, 2},
		{1, 7, 0, 9},
		{3, 3, 3, 0},
	}}
}

// TestRoutingNextHopVisitedAndHopBudget: an unfillable request walks the
// matrix's neighbour preference, never re-enters a visited metro however
// near it is, and dies when the hop budget is spent.
func TestRoutingNextHopVisitedAndHopBudget(t *testing.T) {
	t.Parallel()
	lat := ringless()
	if got := [][]int{lat.Neighbors(0), lat.Neighbors(2), lat.Neighbors(1)}; !reflect.DeepEqual(got, [][]int{{2, 3, 1}, {0, 1, 3}, {3, 0, 2}}) {
		t.Fatalf("matrix neighbours = %v", got)
	}
	for _, tc := range []struct {
		maxHops int
		path    []int // metros holding the request, round by round
	}{
		// 0 → 2 (nearest). From 2 the nearest is 0 again — visited — so 1.
		// From 1: 3. Then every metro is visited.
		{maxHops: 3, path: []int{0, 2, 1, 3}},
		{maxHops: 2, path: []int{0, 2, 1}},
		{maxHops: 1, path: []int{0, 2}},
		// The budget may exceed the metros there are to visit.
		{maxHops: 9, path: []int{0, 2, 1, 3}},
	} {
		f, xs := scriptedFed(t, Config{Metros: 4, Latency: lat, MaxHops: tc.maxHops})
		r := scriptReq("r-walk", locIn(t, f, 0), 0)
		for i, want := range tc.path {
			var res *RoundResult
			if i == 0 {
				res = round(t, f, r)
			} else {
				res = round(t, f)
			}
			if got := holder(xs, i+1, r.ID); got != want {
				t.Fatalf("maxHops %d round %d: request held by metro %d, want %d", tc.maxHops, i, got, want)
			}
			last := i == len(tc.path)-1
			if wantSpilled := btoi(!last); res.Spilled != wantSpilled || res.SpillExpired != btoi(last) {
				t.Fatalf("maxHops %d round %d: spilled %d expired %d, want %d %d",
					tc.maxHops, i, res.Spilled, res.SpillExpired, wantSpilled, btoi(last))
			}
		}
		st := f.Stats()
		if st.Spills != len(tc.path)-1 || st.SpillExpired != 1 || st.ExpiredRequests != 1 {
			t.Fatalf("maxHops %d: stats %+v", tc.maxHops, st)
		}
		if origin, ok := f.Origin(r.ID); !ok || origin != 0 {
			t.Fatalf("Origin = %d,%v, want 0,true", origin, ok)
		}
		if _, ok := f.Origin("r-unknown"); ok {
			t.Fatal("Origin of an ID never submitted must be false")
		}
		// Nothing is left to route: one more round moves nothing.
		round(t, f)
		if got := holder(xs, len(tc.path)+1, r.ID); got != -1 {
			t.Fatalf("maxHops %d: expired request re-admitted by metro %d", tc.maxHops, got)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRoutingSpillSettlesOnce: a request matched after a spill is
// counted as a spill match in the metro that cleared it, and only there.
func TestRoutingSpillSettlesOnce(t *testing.T) {
	t.Parallel()
	f, xs := scriptedFed(t, Config{Metros: 4, Latency: ringless()})
	xs[2].match["r-far"] = true
	xs[0].match["r-near"] = true
	round(t, f, scriptReq("r-far", locIn(t, f, 0), 0), scriptReq("r-near", locIn(t, f, 0), 0))
	res := round(t, f)
	if len(res.Outcomes[2].Matches) != 1 {
		t.Fatalf("metro 2 matched %d, want the spilled request", len(res.Outcomes[2].Matches))
	}
	if m, ok := f.SettledIn("r-far"); !ok || m != 2 {
		t.Fatalf("SettledIn(r-far) = %d,%v, want 2,true", m, ok)
	}
	if m, ok := f.SettledIn("r-near"); !ok || m != 0 {
		t.Fatalf("SettledIn(r-near) = %d,%v, want 0,true", m, ok)
	}
	if st := f.Stats(); st.MatchedLocal != 1 || st.MatchedSpill != 1 || st.Spills != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestRoutingLatencyTightening pins the Eq. 18 coupling: every hop hands
// the next metro a copy whose MaxDistance shrank by DistancePerMS × the
// cumulative path latency (the submitted request is untouched), and the
// search stops at the first candidate the tolerance cannot reach,
// because every later candidate is farther. The copy a
// hop tightens is the one the previous hop made, so the path's early
// legs are charged again on every later hop; that is what the rule has
// always done and this test holds it there.
func TestRoutingLatencyTightening(t *testing.T) {
	t.Parallel()
	lat := ringless()

	// 0 →(5 ms) 2 →(7 ms) 1 →(2 ms) 3: each leg is charged once, so
	// after every hop the tolerance is 1.0 − 0.01 × the path's total
	// latency (5, 12, 14 ms) — no leg is paid again on a later hop.
	f, xs := scriptedFed(t, Config{Metros: 4, Latency: lat, MaxHops: 3, DistancePerMS: 0.01})
	r := scriptReq("r-tight", locIn(t, f, 0), 1.0)
	round(t, f, r)
	for i, want := range []struct {
		metro int
		dist  float64
	}{{2, 1.0 - 0.01*5}, {1, 1.0 - 0.01*12}, {3, 1.0 - 0.01*14}} {
		round(t, f)
		batch := xs[want.metro].batches[len(xs[want.metro].batches)-1]
		if len(batch) != 1 || batch[0].ID != r.ID {
			t.Fatalf("hop %d: metro %d admitted %v", i+1, want.metro, xs[want.metro].lastBatch())
		}
		if got := batch[0].MaxDistance; math.Abs(got-want.dist) > 1e-12 {
			t.Fatalf("hop %d: MaxDistance %g, want %g", i+1, got, want.dist)
		}
	}
	if r.MaxDistance != 1.0 {
		t.Fatalf("the submitted request was mutated: MaxDistance %g", r.MaxDistance)
	}
	// An unconstrained request (MaxDistance 0) is never tightened.
	free := scriptReq("r-free", locIn(t, f, 0), 0)
	round(t, f, free)
	round(t, f)
	if got := xs[2].batches[len(xs[2].batches)-1][0]; got.ID != free.ID || got.MaxDistance != 0 {
		t.Fatalf("unconstrained request arrived as %+v", got)
	}

	// Early break on the tolerance: from metro 0 the nearest neighbour (2,
	// 5 ms) already spends all of 0.04 at 0.01/ms, so the request expires
	// without trying 3 or 1.
	f, xs = scriptedFed(t, Config{Metros: 4, Latency: lat, DistancePerMS: 0.01})
	res := round(t, f, scriptReq("r-spent", locIn(t, f, 0), 0.04))
	if res.Spilled != 0 || res.SpillExpired != 1 {
		t.Fatalf("spent tolerance: spilled %d expired %d, want 0 1", res.Spilled, res.SpillExpired)
	}
	round(t, f)
	if got := holder(xs, 2, "r-spent"); got != -1 {
		t.Fatalf("spent request admitted by metro %d", got)
	}
}

// TestRoutingCanonicalInboxOrder: a metro's batch is its arrivals in
// submission order, then the spilled-in requests ordered by (origin of
// the hop, ID) — not by the order the harvest happened to produce them.
func TestRoutingCanonicalInboxOrder(t *testing.T) {
	t.Parallel()
	// Every metro's nearest neighbour is 0.
	lat := &LatencyMatrix{MS: [][]float64{
		{0, 9, 9},
		{1, 0, 9},
		{1, 9, 0},
	}}
	f, xs := scriptedFed(t, Config{Metros: 3, Latency: lat})
	l1, l2 := locIn(t, f, 1), locIn(t, f, 2)
	round(t, f, scriptReq("r-z", l1, 0), scriptReq("r-b", l2, 0), scriptReq("r-a", l1, 0), scriptReq("r-c", l2, 0))
	xs[0].keep["r-new2"], xs[0].keep["r-new1"] = true, true
	round(t, f, scriptReq("r-new2", locIn(t, f, 0), 0), scriptReq("r-new1", locIn(t, f, 0), 0))
	want := []bidding.OrderID{"r-new2", "r-new1", "r-a", "r-z", "r-b", "r-c"}
	if got := xs[0].lastBatch(); !reflect.DeepEqual(got, want) {
		t.Fatalf("metro 0 batch = %v, want %v", got, want)
	}
}

// TestRoutingDuplicateIDs: an ID the federation already tracks — live,
// spilled, matched or expired — is rejected at the door and never
// reaches an exchange, so it cannot fork into two metros' markets.
func TestRoutingDuplicateIDs(t *testing.T) {
	t.Parallel()
	f, xs := scriptedFed(t, Config{Metros: 2})
	l0, l1 := locIn(t, f, 0), locIn(t, f, 1)
	xs[0].keep["r-dup"] = true
	// Same round, homed to different metros: the first wins.
	round(t, f, scriptReq("r-dup", l0, 0), scriptReq("r-dup", l1, 0))
	if got := xs[1].lastBatch(); len(got) != 0 {
		t.Fatalf("duplicate reached metro 1: %v", got)
	}
	// A later round, while the first is still live.
	round(t, f, scriptReq("r-dup", l1, 0))
	if got := xs[1].lastBatch(); len(got) != 0 {
		t.Fatalf("duplicate of a live order reached metro 1: %v", got)
	}
	if st := f.Stats(); st.SubmittedRequests != 3 || st.RejectedRequests != 2 {
		t.Fatalf("stats %+v, want 3 submitted 2 rejected", st)
	}
	dupOff := &bidding.Offer{ID: "o-dup", Location: l0}
	if _, err := f.Round(nil, []*bidding.Offer{dupOff, dupOff}, nil); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.SubmittedOffers != 2 || st.RejectedOffers != 1 || len(xs[0].liveO) != 1 {
		t.Fatalf("offer stats %+v, live %d", st, len(xs[0].liveO))
	}
	if err := f.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestRoutingExchangeContract pins the seam's edges: a nil outcome cuts
// no block (the head does not move, nothing is harvested), an exchange
// error fails the round naming the metro, an exchange that loses an
// order is caught by the conservation audit, and New refuses an exchange
// list of the wrong length.
func TestRoutingExchangeContract(t *testing.T) {
	t.Parallel()
	f, xs := scriptedFed(t, Config{Metros: 2})
	xs[1].idle = true
	before := f.Heads()
	res := round(t, f)
	if res.Outcomes[1] != nil || f.Heads()[1] != before[1] {
		t.Fatal("an idle exchange must cut no block")
	}
	if f.Heads()[0] == before[0] {
		t.Fatal("a clearing exchange must advance its head")
	}

	xs[1].idle, xs[1].err = false, errors.New("boom")
	if _, err := f.Round(nil, nil, nil); err == nil || !strings.Contains(err.Error(), "metro 1") {
		t.Fatalf("exchange error not surfaced: %v", err)
	}

	f, xs = scriptedFed(t, Config{Metros: 2})
	xs[0].lose = true
	if _, err := f.Round([]*bidding.Request{scriptReq("r-lost", locIn(t, f, 0), 0)}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckConservation(); err == nil {
		t.Fatal("a lost order must fail the conservation audit")
	}

	if _, err := New(Config{Metros: 3}, &scripted{}, &scripted{}); err == nil {
		t.Fatal("2 exchanges for 3 metros must error")
	}
	for m := 1; m <= 4; m++ {
		xs := make([]Exchange, m)
		for i := range xs {
			xs[i] = &scripted{}
		}
		if f, err := New(Config{Metros: m}, xs...); err != nil || f.Exchange(m-1) != xs[m-1] {
			t.Fatalf("M=%d: %v", m, err)
		}
	}
}
