package auction

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"decloud/internal/bidding"
	"decloud/internal/match"
	"decloud/internal/resource"
)

// scheduleOf returns the committed placements on an offer as (start,
// end) pairs, sorted by start.
func scheduleOf(it *IntervalTracker, offerID bidding.OrderID) [][2]int64 {
	var out [][2]int64
	for _, p := range it.placed[offerID] {
		out = append(out, [2]int64{p.start, p.end})
	}
	slices.SortFunc(out, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	return out
}

// econOrders binds requests and offers to dense rows over one index of
// all of them, as a cluster's economics would.
func econOrders(reqs []*bidding.Request, offs []*bidding.Offer) ([]EconRequest, []EconOffer, []resource.Kind) {
	ix := match.NewIndex(reqs, offs, match.BlockScale(reqs, offs))
	ec := &EconCluster{}
	for _, r := range reqs {
		ec.Requests = append(ec.Requests, EconRequest{Request: r})
	}
	for _, o := range offs {
		ec.Offers = append(ec.Offers, EconOffer{Offer: o})
	}
	ec.bindRows(ix)
	return ec.Requests, ec.Offers, ix.Kinds()
}

func TestIntervalTrackerSchedulesSequentially(t *testing.T) {
	it := NewIntervalCapacity().(*IntervalTracker)
	o := &bidding.Offer{
		ID: "o", Provider: "p",
		Resources: resource.Vector{resource.CPU: 4},
		Start:     0, End: 100, Bid: 1,
	}
	// Two full-machine jobs of 40s each: they must serialize, not overlap.
	mk := func(id string) *bidding.Request {
		return &bidding.Request{
			ID: bidding.OrderID(id), Client: "c-" + bidding.ParticipantID(id),
			Resources: resource.Vector{resource.CPU: 4},
			Start:     0, End: 100, Duration: 40, Bid: 1,
		}
	}
	ers, eos, _ := econOrders([]*bidding.Request{mk("r1"), mk("r2"), mk("r3")}, []*bidding.Offer{o})
	r1, r2, r3, eo := ers[0], ers[1], ers[2], eos[0]

	g1, s1, ok := it.TryGrant(r1, eo)
	if !ok || s1 != 0 {
		t.Fatalf("first grant: ok=%v start=%d", ok, s1)
	}
	it.Commit(r1, eo, g1, s1)

	g2, s2, ok := it.TryGrant(r2, eo)
	if !ok {
		t.Fatal("second grant should fit after the first")
	}
	if s2 != 40 {
		t.Fatalf("second start = %d, want 40 (after r1)", s2)
	}
	it.Commit(r2, eo, g2, s2)

	// Third 40s job cannot finish by t=100 (would need [80, 120)).
	if _, _, ok := it.TryGrant(r3, eo); ok {
		t.Fatal("third full-machine job cannot fit in the window")
	}

	sched := scheduleOf(it, "o")
	if len(sched) != 2 || sched[0] != [2]int64{0, 40} || sched[1] != [2]int64{40, 80} {
		t.Fatalf("schedule = %v", sched)
	}
}

func TestIntervalTrackerConcurrentWhenCapacityAllows(t *testing.T) {
	it := NewIntervalCapacity().(*IntervalTracker)
	o := &bidding.Offer{
		ID: "o", Provider: "p",
		Resources: resource.Vector{resource.CPU: 4},
		Start:     0, End: 100, Bid: 1,
	}
	mk := func(id string, cpu float64) *bidding.Request {
		return &bidding.Request{
			ID: bidding.OrderID(id), Client: "c-" + bidding.ParticipantID(id),
			Resources: resource.Vector{resource.CPU: cpu},
			Start:     0, End: 100, Duration: 100, Bid: 1,
		}
	}
	ers, eos, _ := econOrders([]*bidding.Request{mk("r0", 2), mk("r1", 2), mk("r2", 2)}, []*bidding.Offer{o})
	// Two half-machine jobs run concurrently from t=0.
	for i := 0; i < 2; i++ {
		g, s, ok := it.TryGrant(ers[i], eos[0])
		if !ok || s != 0 {
			t.Fatalf("job %d: ok=%v start=%d", i, ok, s)
		}
		it.Commit(ers[i], eos[0], g, s)
	}
	// A third 2-core job cannot fit anywhere (machine full for the whole window).
	if _, _, ok := it.TryGrant(ers[2], eos[0]); ok {
		t.Fatal("machine is saturated; third job must not fit")
	}
}

// The aggregate model's known blind spot: two full-machine jobs, each
// lasting the whole window, CANNOT run on one machine — but two
// half-window jobs whose windows force overlap can slip through the
// aggregate accounting. Exact scheduling must refuse.
func TestExactSchedulingRejectsForcedOverlap(t *testing.T) {
	o := &bidding.Offer{
		ID: "o", Provider: "p",
		Resources: resource.Vector{resource.CPU: 4},
		Start:     0, End: 100, Bid: 1,
	}
	// Both jobs need the full machine for [0, 60) ∩ their windows force
	// them to overlap: r1 must run in [0,60], r2 in [30,90] with d=60 →
	// r2 can only start at exactly 30, overlapping r1 whichever way.
	r1 := &bidding.Request{
		ID: "r1", Client: "a",
		Resources: resource.Vector{resource.CPU: 4},
		Start:     0, End: 60, Duration: 60, Bid: 1,
	}
	r2 := &bidding.Request{
		ID: "r2", Client: "b",
		Resources: resource.Vector{resource.CPU: 4},
		Start:     30, End: 90, Duration: 60, Bid: 1,
	}

	ers, eos, _ := econOrders([]*bidding.Request{r1, r2}, []*bidding.Offer{o})

	agg := NewAggregateCapacity()
	g, s, ok := agg.TryGrant(ers[0], eos[0])
	if !ok {
		t.Fatal("aggregate r1")
	}
	agg.Commit(ers[0], eos[0], g, s)
	if _, _, ok := agg.TryGrant(ers[1], eos[0]); !ok {
		t.Skip("aggregate model happened to reject; nothing to contrast")
	}

	exact := NewIntervalCapacity()
	g, s, ok = exact.TryGrant(ers[0], eos[0])
	if !ok {
		t.Fatal("exact r1")
	}
	exact.Commit(ers[0], eos[0], g, s)
	if _, _, ok := exact.TryGrant(ers[1], eos[0]); ok {
		t.Fatal("exact scheduling admitted a physically impossible overlap")
	}
}

func TestExactSchedulingEndToEnd(t *testing.T) {
	market := workloadMulti(t)
	cfg := DefaultConfig()
	cfg.Evidence = []byte("exact")
	cfg.ExactScheduling = true
	out := Run(market.Requests, market.Offers, cfg)
	if len(out.Matches) == 0 {
		t.Fatal("exact scheduling produced no trades")
	}
	// Re-verify: no offer is oversubscribed at any instant. Rebuild the
	// schedule from the matches and sweep.
	type slot struct {
		start, end int64
		res        resource.Vector
	}
	byOffer := map[bidding.OrderID][]slot{}
	for _, m := range out.Matches {
		if m.Start < m.Request.Start || m.Start+m.Request.Duration > m.Request.End {
			t.Fatalf("match %s scheduled outside its window: start=%d", m.Request.ID, m.Start)
		}
		if m.Start < m.Offer.Start || m.Start+m.Request.Duration > m.Offer.End {
			t.Fatalf("match %s scheduled outside the offer window", m.Request.ID)
		}
		byOffer[m.Offer.ID] = append(byOffer[m.Offer.ID], slot{
			start: m.Start, end: m.Start + m.Request.Duration, res: m.Granted,
		})
	}
	for _, m := range out.Matches {
		o := m.Offer
		slots := byOffer[o.ID]
		for _, s := range slots {
			// usage at instant s.start
			usage := make(resource.Vector)
			for _, other := range slots {
				if other.start <= s.start && s.start < other.end {
					usage = usage.Add(other.res)
				}
			}
			for _, k := range usage.Kinds() {
				if usage[k] > o.Resources[k]+1e-6 {
					t.Fatalf("offer %s oversubscribed at t=%d: %v > %v of %s",
						o.ID, s.start, usage[k], o.Resources[k], k)
				}
			}
		}
	}
	// The exact model can only be more conservative than the aggregate one.
	agg := Run(market.Requests, market.Offers, DefaultConfig())
	if len(out.Matches) > len(agg.Matches)+2 {
		t.Fatalf("exact scheduling matched more than aggregate: %d vs %d",
			len(out.Matches), len(agg.Matches))
	}
}

func TestExactSchedulingDeterministic(t *testing.T) {
	run := func() *Outcome {
		reqs, offs := randomMarket(rand.New(rand.NewSource(7)), 40, 8)
		cfg := DefaultConfig()
		cfg.Evidence = []byte("det")
		cfg.ExactScheduling = true
		return Run(reqs, offs, cfg)
	}
	a, b := run(), run()
	if len(a.Matches) != len(b.Matches) {
		t.Fatal("nondeterministic match count under exact scheduling")
	}
	for i := range a.Matches {
		if a.Matches[i].Start != b.Matches[i].Start || a.Matches[i].Payment != b.Matches[i].Payment {
			t.Fatalf("nondeterministic match %d", i)
		}
	}
}

// FuzzDenseCapacityMatchesTracker runs the dense aggregate model and the
// map Tracker through one script of probes, commits and trials over a
// market drawn from the input, and fails on the first bit that differs:
// a grant (its verdict, its vector, its φ) or any offer's remaining
// resource·time. The markets have flexible requests that take partial
// grants, zero-quantity kinds, request kinds the offer lacks, probes
// refused and then accepted on one offer, reverted trials, and blocks
// wider than 64 kinds (multi-word masks).
func FuzzDenseCapacityMatchesTracker(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 7, 0, 3, 1, 2})
	f.Add(int64(7), []byte{6, 0, 0, 0, 1, 1, 1, 2, 2, 7, 1, 0, 0, 5, 3})
	f.Add(int64(12), []byte{255, 6, 4, 4, 4, 4, 7, 0, 4, 4, 4, 4, 4, 4})
	f.Add(int64(3), bytes.Repeat([]byte{6, 1, 9, 17, 7, 0, 33, 2}, 8))
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		rnd := rand.New(rand.NewSource(seed))
		nk := 1 + rnd.Intn(8)
		if rnd.Intn(3) == 0 {
			nk = 65 + rnd.Intn(70) // a wide block: masks of two or three words
		}
		kinds := make([]resource.Kind, nk)
		for i := range kinds {
			kinds[i] = resource.Kind(fmt.Sprintf("k%03d", i))
		}
		density := 1 + rnd.Intn(3)
		if nk > 64 {
			density = 8
		}
		vector := func(quantities []float64) resource.Vector {
			v := resource.Vector{}
			for _, k := range kinds {
				switch n := rnd.Intn(density + 2); {
				case n == 0:
					v[k] = 0 // a zero-quantity kind
				case n <= density:
					// absent
				default:
					v[k] = quantities[rnd.Intn(len(quantities))]
				}
			}
			return v
		}
		var reqs []*bidding.Request
		for i, n := 0, 1+rnd.Intn(8); i < n; i++ {
			reqs = append(reqs, &bidding.Request{
				ID: bidding.OrderID(fmt.Sprintf("r%d", i)), Client: "c",
				Resources:   vector([]float64{0.5, 1, 2, 3, 4, 6, 8}),
				Start:       int64(rnd.Intn(20)),
				End:         100,
				Duration:    []int64{10, 25, 40, 80}[rnd.Intn(4)],
				Flexibility: []float64{0, 0.25, 0.5, 0.9, 1e-12}[rnd.Intn(5)],
			})
		}
		var offs []*bidding.Offer
		for i, n := 0, 1+rnd.Intn(3); i < n; i++ {
			offs = append(offs, &bidding.Offer{
				ID: bidding.OrderID(fmt.Sprintf("o%d", i)), Provider: "p",
				Resources: vector([]float64{1, 2, 4, 8}),
				Start:     int64(rnd.Intn(10)),
				End:       100 + int64(rnd.Intn(2))*20,
			})
		}
		ers, eos, table := econOrders(reqs, offs)

		dense := NewAggregateCapacity().(*aggregate)
		oracle, saved := NewTracker(), NewTracker()
		inTrial := false
		for step, b := range script {
			if step == 64 {
				break
			}
			switch op := b % 8; {
			case op == 6 && !inTrial:
				dense.begin()
				saved, inTrial = oracle.Clone(), true
			case op == 7 && inTrial:
				revert := b&8 != 0
				dense.end(revert)
				if revert {
					oracle = saved
				}
				inTrial = false
			default:
				ri, oi := int(b>>3)%len(reqs), int(b>>5)%len(offs)
				want := oracle.TryGrant(reqs[ri], offs[oi])
				g, start, ok := dense.TryGrant(ers[ri], eos[oi])
				if ok != (want != nil) {
					t.Fatalf("step %d: %s on %s: dense ok=%v, map grant %v", step, reqs[ri].ID, offs[oi].ID, ok, want)
				}
				if !ok {
					break
				}
				got := grantVector(table, ers[ri], g)
				if !sameBits(got, want) || start != reqs[ri].Start {
					t.Fatalf("step %d: dense grant %v at %d, map grant %v", step, got, start, want)
				}
				if d, m := grantFraction(ers[ri], eos[oi], g), Fraction(want, reqs[ri], offs[oi]); math.Float64bits(d) != math.Float64bits(m) {
					t.Fatalf("step %d: dense φ %v, map φ %v", step, d, m)
				}
				if op != 5 { // op 5 only probes
					dense.Commit(ers[ri], eos[oi], g, start)
					oracle.Commit(offs[oi], want, reqs[ri].Duration)
				}
			}
			for oi, o := range offs {
				rem := o.Resources.Scale(float64(o.Window()))
				if i, ok := dense.at[o.ID]; ok {
					rem = resource.Vector{}
					for k, q := range dense.rem[i : i+len(table)] {
						rem[table[k]] = q
					}
				}
				if !sameBits(rem, oracle.capacity(offs[oi])) {
					t.Fatalf("step %d: %s remaining: dense %v, map %v", step, o.ID, rem, oracle.capacity(o))
				}
			}
		}
	})
}

// sameBits reports whether two vectors hold bit-identical quantities,
// an absent kind reading as +0.
func sameBits(a, b resource.Vector) bool {
	for _, v := range []resource.Vector{a, b} {
		for k := range v {
			if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
				return false
			}
		}
	}
	return true
}
