package cluster

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"decloud/internal/bidding"
	"decloud/internal/match"
	"decloud/internal/resource"
	"decloud/internal/workload"
)

func req(id string, cpu float64) *bidding.Request {
	return &bidding.Request{
		ID: bidding.OrderID(id), Client: bidding.ParticipantID("c-" + id),
		Resources: resource.Vector{resource.CPU: cpu},
		Start:     0, End: 100, Duration: 50, Bid: 1,
	}
}

func off(id string, cpu float64) *bidding.Offer {
	return &bidding.Offer{
		ID: bidding.OrderID(id), Provider: bidding.ParticipantID("p-" + id),
		Resources: resource.Vector{resource.CPU: cpu},
		Start:     0, End: 200, Bid: 1,
	}
}

func hasOffer(c *Cluster, id bidding.OrderID) bool {
	for _, o := range c.Offers {
		if o.ID == id {
			return true
		}
	}
	return false
}

func hasRequest(c *Cluster, id bidding.OrderID) bool {
	for _, r := range c.Requests {
		if r.ID == id {
			return true
		}
	}
	return false
}

// build runs the whole clustering pass over a fresh block index.
func build(reqs []*bidding.Request, offs []*bidding.Offer) []*Cluster {
	return BuildIndex(match.NewIndex(reqs, offs, match.BlockScale(reqs, offs)), match.DefaultConfig(), 1)
}

func TestBuilderCreatesClusterForNewOfferSet(t *testing.T) {
	b := NewBuilder()
	o1, o2 := off("o1", 8), off("o2", 8)
	r := req("r1", 4)
	b.Update(r, []*bidding.Offer{o1, o2})
	clusters := b.Clusters()
	if len(clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(clusters))
	}
	c := clusters[0]
	if len(c.Offers) != 2 || len(c.Requests) != 1 {
		t.Fatalf("cluster shape: %d offers, %d requests", len(c.Offers), len(c.Requests))
	}
	if !hasOffer(c, "o1") || !hasOffer(c, "o2") || !hasRequest(c, "r1") {
		t.Fatal("membership checks failed")
	}
}

func TestBuilderReusesIdenticalOfferSet(t *testing.T) {
	b := NewBuilder()
	o1, o2 := off("o1", 8), off("o2", 8)
	b.Update(req("r1", 4), []*bidding.Offer{o1, o2})
	b.Update(req("r2", 4), []*bidding.Offer{o2, o1}) // same set, different order
	clusters := b.Clusters()
	if len(clusters) != 1 {
		t.Fatalf("identical offer sets should merge, got %d clusters", len(clusters))
	}
	if len(clusters[0].Requests) != 2 {
		t.Fatalf("requests = %d, want 2", len(clusters[0].Requests))
	}
}

func TestBuilderSubsetInheritsRequest(t *testing.T) {
	b := NewBuilder()
	o1, o2, o3 := off("o1", 8), off("o2", 8), off("o3", 8)
	// First request establishes subset cluster {o1}.
	b.Update(req("r1", 4), []*bidding.Offer{o1})
	// Second request's best set {o1,o2,o3} is a superset: the subset
	// cluster {o1} must receive r2 as well.
	b.Update(req("r2", 4), []*bidding.Offer{o1, o2, o3})
	clusters := b.Clusters()
	var small *Cluster
	for _, c := range clusters {
		if len(c.Offers) == 1 {
			small = c
		}
	}
	if small == nil {
		t.Fatal("subset cluster {o1} vanished")
	}
	if !hasRequest(small, "r2") {
		t.Fatal("subset cluster should inherit the new request")
	}
}

func TestBuilderSubsetInheritsSupersetRequests(t *testing.T) {
	b := NewBuilder()
	o1, o2, o3 := off("o1", 8), off("o2", 8), off("o3", 8)
	// r1 forms the big cluster first.
	b.Update(req("r1", 4), []*bidding.Offer{o1, o2, o3})
	// r2's best set {o1} is a subset of the existing cluster: r2's cluster
	// inherits r1 from the superset.
	b.Update(req("r2", 4), []*bidding.Offer{o1})
	var small *Cluster
	for _, c := range b.Clusters() {
		if len(c.Offers) == 1 {
			small = c
		}
	}
	if small == nil {
		t.Fatal("cluster {o1} missing")
	}
	if !hasRequest(small, "r1") || !hasRequest(small, "r2") {
		t.Fatalf("subset should hold both requests, has %d", len(small.Requests))
	}
}

func TestBuilderIntersectionCluster(t *testing.T) {
	b := NewBuilder()
	o1, o2, o3, o4 := off("o1", 8), off("o2", 8), off("o3", 8), off("o4", 8)
	b.Update(req("r1", 4), []*bidding.Offer{o1, o2, o3})
	b.Update(req("r2", 4), []*bidding.Offer{o2, o3, o4})
	// Intersection {o2,o3} has size 2 > 1 → materialized with r2 and r1's requests.
	var inter *Cluster
	for _, c := range b.Clusters() {
		if len(c.Offers) == 2 && hasOffer(c, "o2") && hasOffer(c, "o3") {
			inter = c
		}
	}
	if inter == nil {
		t.Fatal("intersection cluster {o2,o3} not created")
	}
	if !hasRequest(inter, "r1") || !hasRequest(inter, "r2") {
		t.Fatal("intersection cluster should hold both requests")
	}
}

func TestBuilderSingleOfferIntersectionIgnored(t *testing.T) {
	b := NewBuilder()
	o1, o2, o3 := off("o1", 8), off("o2", 8), off("o3", 8)
	b.Update(req("r1", 4), []*bidding.Offer{o1, o2})
	b.Update(req("r2", 4), []*bidding.Offer{o2, o3})
	// Intersection {o2} has size 1: must NOT create a new cluster.
	for _, c := range b.Clusters() {
		if len(c.Offers) == 1 {
			t.Fatalf("singleton intersection cluster created: %v", c.Key())
		}
	}
}

func TestBuilderNoDuplicateRequests(t *testing.T) {
	b := NewBuilder()
	o1 := off("o1", 8)
	r := req("r1", 4)
	b.Update(r, []*bidding.Offer{o1})
	b.Update(r, []*bidding.Offer{o1})
	clusters := b.Clusters()
	if len(clusters) != 1 || len(clusters[0].Requests) != 1 {
		t.Fatalf("duplicate request slipped in: %+v", clusters)
	}
}

func TestBuilderEmptyBestSetIgnored(t *testing.T) {
	b := NewBuilder()
	b.Update(req("r1", 4), nil)
	if len(b.Clusters()) != 0 {
		t.Fatal("empty best set should not create clusters")
	}
}

func TestClustersDeterministicOrder(t *testing.T) {
	mk := func(order []int) []string {
		b := NewBuilder()
		offers := []*bidding.Offer{off("o1", 8), off("o2", 8), off("o3", 8)}
		sets := [][]*bidding.Offer{
			{offers[0], offers[1]},
			{offers[1], offers[2]},
			{offers[0]},
		}
		for i, idx := range order {
			b.Update(req(fmt.Sprintf("r%d", i), 4), sets[idx])
		}
		var keys []string
		for _, c := range b.Clusters() {
			keys = append(keys, c.Key())
		}
		return keys
	}
	// Same update sequence twice must give identical ordering.
	a := mk([]int{0, 1, 2})
	b := mk([]int{0, 1, 2})
	if len(a) != len(b) {
		t.Fatalf("nondeterministic cluster count: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d: %v vs %v", i, a, b)
		}
	}
}

func TestBuildEndToEnd(t *testing.T) {
	// Two distinct offer "sizes": small requests cluster on small offers
	// under a tight quality band... with Eq. 18's gravity, all requests
	// share the largest feasible offers, so we separate by time windows.
	early := off("early", 8)
	early.Start, early.End = 0, 100
	late := off("late", 8)
	late.Start, late.End = 100, 200

	r1 := req("r1", 4) // window [0,100] fits only "early"
	r2 := req("r2", 4)
	r2.Start, r2.End = 110, 190 // fits only "late"

	clusters := build([]*bidding.Request{r1, r2}, []*bidding.Offer{early, late})
	if len(clusters) != 2 {
		t.Fatalf("expected 2 time-separated clusters, got %d", len(clusters))
	}
	for _, c := range clusters {
		if len(c.Requests) != 1 || len(c.Offers) != 1 {
			t.Fatalf("unexpected cluster shape: %d offers %d requests", len(c.Offers), len(c.Requests))
		}
	}
}

func TestBuildUnservableRequestDropped(t *testing.T) {
	r := req("r1", 64) // no offer is big enough
	o := off("o1", 8)
	clusters := build([]*bidding.Request{r}, []*bidding.Offer{o})
	if len(clusters) != 0 {
		t.Fatalf("unservable request produced clusters: %d", len(clusters))
	}
}

// TestClusterPairsAlwaysFeasible: every (request, offer) pair inside any
// built cluster must be match-feasible — the allocation phase relies on
// clusters only containing servable combinations.
func TestClusterPairsAlwaysFeasible(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		var reqs []*bidding.Request
		var offs []*bidding.Offer
		n := 5 + rnd.Intn(20)
		m := 2 + rnd.Intn(8)
		for i := 0; i < n; i++ {
			r := req(fmt.Sprintf("r%02d", i), float64(1+rnd.Intn(8)))
			r.Start = int64(rnd.Intn(50))
			r.End = r.Start + int64(20+rnd.Intn(80))
			r.Duration = 10 + int64(rnd.Intn(10))
			if rnd.Intn(3) == 0 {
				r.Flexibility = 0.5 + rnd.Float64()*0.5
			}
			reqs = append(reqs, r)
		}
		for j := 0; j < m; j++ {
			o := off(fmt.Sprintf("o%02d", j), float64(2+rnd.Intn(15)))
			o.Start = int64(rnd.Intn(30))
			o.End = o.Start + int64(50+rnd.Intn(150))
			offs = append(offs, o)
		}
		for _, c := range build(reqs, offs) {
			for _, r := range c.Requests {
				feasibleWithAny := false
				for _, o := range c.Offers {
					if match.Feasible(r, o) {
						feasibleWithAny = true
						break
					}
				}
				if !feasibleWithAny {
					t.Fatalf("trial %d: request %s in cluster %q has no feasible offer",
						trial, r.ID, c.Key())
				}
			}
		}
	}
}

// algorithm2 is Algorithm 2 without the per-best-set memo: every Update
// compares the best set with every existing cluster. Its Update is the
// builder's body from before the memo, kept as the oracle the memoized
// Builder is checked against.
type algorithm2 struct {
	*Builder
	order      []string // insertion order of mask keys
	subs, sups []*Cluster
}

func newAlgorithm2() *algorithm2 { return &algorithm2{Builder: NewBuilder()} }

func (b *algorithm2) Reset() {
	b.Builder.Reset()
	b.order = b.order[:0]
}

func (b *algorithm2) put(key string, c *Cluster) {
	if _, exists := b.clusters[key]; !exists {
		b.order = append(b.order, key)
	}
	b.Builder.put(key, c)
}

func (b *algorithm2) Update(r *bidding.Request, bestR []*bidding.Offer) {
	if len(bestR) == 0 {
		return
	}
	ri := b.internReq(r)
	bestMask := b.maskOf(bestR)
	bestKey := string(b.keyBytes(bestMask))
	if b.clusters[bestKey] == nil {
		b.put(bestKey, newCluster(bestR, b.cloneMask(bestMask)))
	}

	// Fix the horizon now: intersection clusters created below must not
	// themselves be revisited within this update. Entries already in
	// b.order stay valid when it grows.
	keys := b.order[:len(b.order):len(b.order)]

	subsets, supersets := b.subs[:0], b.sups[:0]
	for _, key := range keys {
		c := b.clusters[key]
		if maskSubset(c.mask, bestMask) {
			subsets = append(subsets, c)
		}
		if maskSubset(bestMask, c.mask) {
			supersets = append(supersets, c)
		}
	}
	b.subs, b.sups = subsets, supersets
	for _, subset := range subsets {
		subset.rmask = b.setRBit(subset.rmask, ri)
		for _, superset := range supersets {
			subset.rmask = orMask(subset.rmask, superset.rmask)
		}
	}

	for _, key := range keys {
		if key == bestKey {
			continue
		}
		c := b.clusters[key]
		// Intersect into scratch; only popcount ≥ 2 overlaps ever touch
		// the cluster map or allocate.
		nw := len(c.mask)
		if len(bestMask) < nw {
			nw = len(bestMask)
		}
		if cap(b.iw) < nw {
			b.iw = make([]uint64, nw)
		}
		inter := b.iw[:nw]
		pop := 0
		for i := 0; i < nw; i++ {
			inter[i] = c.mask[i] & bestMask[i]
			pop += bits.OnesCount64(inter[i])
		}
		if pop <= 1 {
			continue
		}
		if x := b.clusters[string(b.keyBytes(inter))]; x != nil {
			x.rmask = b.setRBit(x.rmask, ri)
		} else {
			nc := newCluster(b.offersOf(inter), b.cloneMask(inter))
			nc.rmask = b.setRBit(nc.rmask, ri)
			nc.rmask = orMask(nc.rmask, c.rmask)
			b.put(string(b.keyBytes(inter)), nc)
		}
	}
}

// sameClusters fails unless two Clusters() results agree cluster by
// cluster, in order: offers, requests and key.
func sameClusters(t *testing.T, got, want []*Cluster) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d clusters, Algorithm 2 has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Key() != w.Key() || !slices.Equal(g.Offers, w.Offers) || !slices.Equal(g.Requests, w.Requests) {
			t.Fatalf("cluster %d: got %q with %d requests, Algorithm 2 has %q with %d",
				i, g.Key(), len(g.Requests), w.Key(), len(w.Requests))
		}
	}
}

// checkAgainstAlgorithm2 runs a script of Updates through a Builder and
// the algorithm2 oracle, both held across epochs, and compares their
// Clusters() at every epoch end. The first byte sizes the offer universe
// (1–200 offers, so masks span 1–4 words and a mask made early in an
// epoch can be narrower than a later best mask). Each further byte picks
// an op: a zero ends the epoch (Reset, with or without Reserve); any
// other byte updates with an earlier best set, an empty or a
// single-offer set, a new set around one offer, or a new wide set.
func checkAgainstAlgorithm2(t *testing.T, script []byte) {
	pos := 0
	next := func() int {
		if pos >= len(script) {
			return 0
		}
		pos++
		return int(script[pos-1])
	}
	n := 1 + next()%200
	offers := make([]*bidding.Offer, n)
	for i := range offers {
		offers[i] = off(fmt.Sprintf("o%03d", i), 8)
		offers[i].Submitted = int64(i * 7 % 13)
	}
	// setOf maps offer indices (mod n) to a best set without repeats,
	// in first-mention order.
	setOf := func(idx []int) []*bidding.Offer {
		seen := make([]bool, n)
		var set []*bidding.Offer
		for _, i := range idx {
			if i %= n; !seen[i] {
				seen[i] = true
				set = append(set, offers[i])
			}
		}
		return set
	}
	memo, ref := NewBuilder(), newAlgorithm2()
	var sets [][]*bidding.Offer
	epoch, updates := 0, 0
	endEpoch := func() {
		sameClusters(t, memo.Clusters(), ref.Clusters())
		memo.Reset()
		ref.Reset()
		epoch++
		updates = 0
	}
	for pos < len(script) {
		var set []*bidding.Offer
		op := next()
		if op == 0 {
			endEpoch()
			if k := next(); k%2 == 1 {
				memo.Reserve(k / 2)
				ref.Reserve(k / 2)
			}
			continue
		}
		switch op %= 15; {
		case op <= 5 && len(sets) > 0:
			set = sets[next()%len(sets)]
		case op == 6:
		case op == 7:
			set = setOf([]int{next()})
		case op <= 12:
			c, idx := next(), make([]int, 2+next()%6)
			for i := range idx {
				idx[i] = c + next()%10
			}
			set = setOf(idx)
		default:
			start, stride, idx := next(), 1+next()%3, make([]int, 2+next()%70)
			for i := range idx {
				idx[i] = start + i*stride
			}
			set = setOf(idx)
		}
		if len(set) > 0 {
			sets = append(sets, set)
		}
		r := req(fmt.Sprintf("r%d-%04d", epoch, updates), 4)
		r.Submitted = int64(updates / 3) // canonical order, as BuildIndex feeds it
		updates++
		memo.Update(r, set)
		ref.Update(r, set)
		memoInOrder(t, memo, set)
	}
	endEpoch()
}

// memoInOrder fails unless the memo of set's cluster lists each subset
// and superset once, in creation order, and only clusters before its
// horizon: what a scan of the creation order would have recorded.
func memoInOrder(t *testing.T, b *Builder, set []*bidding.Offer) {
	t.Helper()
	if len(set) == 0 {
		return
	}
	best := b.clusters[string(b.keyBytes(b.maskOf(set)))]
	for _, list := range [][]*Cluster{best.subs, best.sups} {
		for i, c := range list {
			if c.idx >= best.horizon || i > 0 && c.idx <= list[i-1].idx {
				t.Fatalf("memo of %q: cluster %d at position %d (horizon %d) is out of creation order or past the horizon",
					best.Key(), c.idx, i, best.horizon)
			}
		}
	}
}

// TestBuilderMatchesAlgorithm2 holds the memoized Builder to the
// algorithm2 oracle on seeded scripts and on the best sets of generated
// markets, one Builder of each kind serving every epoch of a case.
func TestBuilderMatchesAlgorithm2(t *testing.T) {
	script := func(seed int64, universe, ops, resetEvery int) []byte {
		rnd := rand.New(rand.NewSource(seed))
		s := []byte{byte(universe - 1)}
		for range ops {
			b := byte(1 + rnd.Intn(255))
			if rnd.Intn(resetEvery) == 0 {
				b = 0
			}
			s = append(s, b)
		}
		return s
	}
	cases := []struct {
		name   string
		script []byte
	}{
		{"one offer", script(1, 1, 400, 50)},
		{"one word", script(2, 40, 3000, 400)},
		{"two words", script(3, 100, 3000, 400)},
		{"four words", script(4, 200, 4000, 1000)},
		{"short epochs", script(5, 120, 3000, 12)},
		{"sliding window", func() []byte {
			// New sets around a creeping center, each followed by a
			// repeat: the universe widens one word at a time, so early
			// clusters' masks are narrower than later best masks.
			s := []byte{199}
			for k := range 300 {
				s = append(s, 9, byte(k*2/3), 5, 0, 3, 6, 9, 12, 15, 18, 1, byte(k))
			}
			return s
		}()},
		{"interleaved neighbourhoods", func() []byte {
			// Five disjoint ten-offer neighbourhoods, a new set from each
			// in turn, with a repeat now and then. A best set's offers
			// post clusters whose creation indices interleave with the
			// other neighbourhoods', so the walk merges several lists
			// and must restore creation order before step 3 creates
			// intersections.
			rnd := rand.New(rand.NewSource(8))
			s, sets := []byte{199}, 0
			for k := range 900 {
				if k%7 == 6 {
					s = append(s, 1, byte(rnd.Intn(min(sets, 256))))
				} else {
					n := rnd.Intn(6)
					s = append(s, 8, byte(40*(k%5)), byte(n))
					for range 2 + n {
						s = append(s, byte(rnd.Intn(10)))
					}
				}
				sets++
				if k%300 == 299 {
					s = append(s, 0, byte(k/300)*255) // Reserve(127) once
				}
			}
			return s
		}()},
		{"returning best set", func() []byte {
			// A set in neighbourhood 0 comes back after new clusters
			// appeared only in neighbourhoods 1–4 (its walk finds
			// nothing new), then after new overlapping sets in its own
			// neighbourhood (its walk resumes at its horizon).
			s, sets := []byte{199}, 0
			hood := func(c, n int, at ...int) {
				s = append(s, 8, byte(c), byte(n-2))
				for _, i := range at[:n] {
					s = append(s, byte(i))
				}
				sets++
			}
			for round := range 8 {
				first := sets
				hood(0, 5, 0, 1, 2, 3, 4)
				for k := range 20 {
					hood(40*(1+k%4), 3, k%7, (k+2)%7, (k+5)%9)
				}
				s = append(s, 1, byte(first))
				sets++
				hood(0, 4, 2, 3, 4, 5+round%3)
				hood(0, 3, 4, 6, 1)
				s = append(s, 1, byte(first))
				sets++
			}
			return s
		}()},
		{"random bytes", func() []byte {
			b := make([]byte, 4000)
			rand.New(rand.NewSource(6)).Read(b)
			return b
		}()},
	}
	for seed := int64(10); seed < 26; seed++ {
		cases = append(cases, struct {
			name   string
			script []byte
		}{fmt.Sprintf("seed %d", seed), script(seed, 1+int(seed*37%200), 1500, 300)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkAgainstAlgorithm2(t, tc.script) })
	}

	t.Run("markets", func(t *testing.T) {
		memo, ref := NewBuilder(), newAlgorithm2()
		for seed := int64(1); seed <= 3; seed++ {
			m := workload.Generate(workload.Config{Seed: seed, Requests: 600})
			ix := match.NewIndex(m.Requests, m.Offers, match.BlockScale(m.Requests, m.Offers))
			best := match.BestOffersAll(ix, match.DefaultConfig(), 1)
			memo.Reset()
			ref.Reset()
			if seed != 2 {
				memo.Reserve(len(best))
				ref.Reserve(len(best))
			}
			for i, r := range ix.Requests() {
				memo.Update(r, best[i])
				ref.Update(r, best[i])
			}
			sameClusters(t, memo.Clusters(), ref.Clusters())
		}
	})

	// The two sides of fresh's selection: in a dense market most best
	// sets' offers sit in many clusters, and Update mostly scans; in a
	// geo-fragmented one a neighbourhood's posting lists are short next
	// to the market's creation order, and Update mostly walks.
	for _, tc := range []struct {
		name   string
		radius float64
	}{{"dense market", 0}, {"geo-fragmented market", 0.15}} {
		t.Run(tc.name, func(t *testing.T) {
			m := workload.Generate(workload.Config{Seed: 4, Requests: 800, GeoRadius: tc.radius})
			ix := match.NewIndex(m.Requests, m.Offers, match.BlockScale(m.Requests, m.Offers))
			best := match.BestOffersAll(ix, match.DefaultConfig(), 1)
			memo, ref := NewBuilder(), newAlgorithm2()
			memo.Reserve(len(best))
			for i, r := range ix.Requests() {
				memo.Update(r, best[i])
				ref.Update(r, best[i])
				memoInOrder(t, memo, best[i])
			}
			sameClusters(t, memo.Clusters(), ref.Clusters())
		})
	}
}

// FuzzBuilderMatchesAlgorithm2 holds the memoized Builder to the
// algorithm2 oracle on arbitrary scripts (see checkAgainstAlgorithm2).
func FuzzBuilderMatchesAlgorithm2(f *testing.F) {
	f.Add([]byte{199, 9, 0, 3, 1, 14, 20, 2, 60, 1, 0, 1, 1, 2, 9, 100, 5, 1, 2, 3, 4, 5})
	f.Add([]byte{63, 14, 0, 1, 40, 9, 10, 3, 0, 1, 2, 3, 1, 0, 1, 0, 0, 7, 5, 8, 1, 1, 1})
	f.Add([]byte{0, 8, 8, 8, 7, 1, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		checkAgainstAlgorithm2(t, script)
	})
}
