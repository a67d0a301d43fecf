package match

import (
	"fmt"
	"math/rand"
	"testing"

	"decloud/internal/bidding"
	"decloud/internal/resource"
)

// randomBlock builds a deterministic pseudo-random market that exercises
// every pruning axis of the index: overlapping time windows, partial
// kind overlap, flexibility, locality radii, significance weights, and
// colliding submission times (to hit the tie-break path).
func randomBlock(seed int64, nr, no int) ([]*bidding.Request, []*bidding.Offer) {
	rng := rand.New(rand.NewSource(seed))
	kinds := []resource.Kind{resource.CPU, resource.RAM, resource.Disk, resource.GPU, "net", "fpga"}
	vec := func(scale float64) resource.Vector {
		v := make(resource.Vector)
		n := 1 + rng.Intn(len(kinds)-1)
		for _, i := range rng.Perm(len(kinds))[:n] {
			v[kinds[i]] = scale * (0.5 + rng.Float64()*4)
		}
		return v
	}
	reqs := make([]*bidding.Request, nr)
	for i := range reqs {
		start := int64(rng.Intn(50))
		end := start + 20 + int64(rng.Intn(80))
		r := &bidding.Request{
			ID:        bidding.OrderID(fmt.Sprintf("r%03d", i)),
			Client:    bidding.ParticipantID(fmt.Sprintf("c%03d", i)),
			Resources: vec(1),
			Start:     start, End: end,
			Duration:  (end - start) / 2,
			Bid:       1 + rng.Float64()*10,
			Submitted: int64(rng.Intn(8)), // collisions on purpose
			Location:  bidding.Location{X: rng.Float64(), Y: rng.Float64()},
		}
		if rng.Intn(3) == 0 {
			r.Flexibility = 0.6 + rng.Float64()*0.4
		}
		if rng.Intn(4) == 0 {
			r.MaxDistance = 0.2 + rng.Float64()*0.5
		}
		if rng.Intn(3) == 0 {
			r.Weights = map[resource.Kind]float64{kinds[rng.Intn(len(kinds))]: 0.05 + rng.Float64()*0.9}
		}
		reqs[i] = r
	}
	offs := make([]*bidding.Offer, no)
	for i := range offs {
		start := int64(rng.Intn(60))
		offs[i] = &bidding.Offer{
			ID:        bidding.OrderID(fmt.Sprintf("o%03d", i)),
			Provider:  bidding.ParticipantID(fmt.Sprintf("p%03d", i)),
			Resources: vec(2),
			Start:     start, End: start + 40 + int64(rng.Intn(120)),
			Bid:       rng.Float64() * 5,
			Submitted: int64(rng.Intn(8)),
			Location:  bidding.Location{X: rng.Float64(), Y: rng.Float64()},
		}
	}
	return reqs, offs
}

func offerIDs(offers []*bidding.Offer) []string {
	ids := make([]string, len(offers))
	for i, o := range offers {
		ids[i] = string(o.ID)
	}
	return ids
}

// localize gives every request a reach of 0.01–0.05 and moves three in
// four offers to within ±0.04 of a random request; half of those are
// sized and timed for it, starting one tick before, with or after it.
// So best sets are decided by the distance and start tests, at the
// edges of the locality strip.
func localize(seed int64, reqs []*bidding.Request, offs []*bidding.Offer) {
	rng := rand.New(rand.NewSource(seed))
	for _, r := range reqs {
		r.MaxDistance = 0.01 + 0.04*rng.Float64()
	}
	for _, o := range offs[len(offs)/4:] {
		r := reqs[rng.Intn(len(reqs))]
		o.Location = bidding.Location{X: r.Location.X + 0.08*(rng.Float64()-0.5), Y: r.Location.Y + 0.08*(rng.Float64()-0.5)}
		if rng.Intn(2) == 0 {
			o.Resources = r.Resources.Clone()
			for k := range o.Resources {
				o.Resources[k] *= 1 + rng.Float64()
			}
			o.Start, o.End = r.Start+int64(rng.Intn(3))-1, r.End+int64(rng.Intn(20))
		}
	}
}

// TestIndexBestOffersMatchesNaive cross-checks the indexed engine against
// the brute-force reference per request, over randomized blocks and
// config variants, with one Scratch reused across every request (the
// production access pattern). The local variant gives every request a
// 0.01–0.05 reach, so the locality strip prunes most of the block.
func TestIndexBestOffersMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		local := seed >= 20
		n, no := int(seed%20), 40+int(seed%20)*5
		if local {
			no *= 4
		}
		reqs, offs := randomBlock(seed%20, 30+n*3, no)
		if local {
			localize(seed, reqs, offs)
		}
		scale := BlockScale(reqs, offs)
		ix := NewIndex(reqs, offs, scale)
		cfg := DefaultConfig()
		switch seed % 3 {
		case 1:
			cfg.QualityBand = 0.9
		case 2:
			cfg.MaxBestOffers = 3
		}
		var s Scratch
		for ri, r := range ix.Requests() {
			want := BestOffers(r, offs, scale, cfg)
			got := ix.BestOffers(ri, cfg, &s)
			if fmt.Sprint(offerIDs(want)) != fmt.Sprint(offerIDs(got)) {
				t.Fatalf("seed %d request %s: indexed %v != naive %v", seed, r.ID, offerIDs(got), offerIDs(want))
			}
		}
		if pairs := int64(len(reqs) * len(offs)); local && ix.Scans() > pairs/4 {
			t.Fatalf("seed %d: the strip scanned %d of %d pairs", seed, ix.Scans(), pairs)
		}
	}
}

// TestTopKTieBreaking pins the deterministic tie order on a block of
// equal-quality offers: identical resources mean identical Eq. 18
// scores, so rank order must fall back to (Submitted, ID) — and must be
// invariant under any permutation of the input offer slice, or verifying
// miners holding differently-ordered mempools would disagree.
func TestTopKTieBreaking(t *testing.T) {
	r := req("r", resource.Vector{resource.CPU: 4, resource.RAM: 8})
	res := resource.Vector{resource.CPU: 8, resource.RAM: 16}
	mk := func(id string, submitted int64) *bidding.Offer {
		o := off(id, res.Clone())
		o.Submitted = submitted
		return o
	}
	// Wanted order: Submitted ascending, then ID ascending.
	offers := []*bidding.Offer{
		mk("o-b", 1), mk("o-d", 1), mk("o-a", 2), mk("o-c", 2), mk("o-e", 5),
	}
	want := []string{"o-b", "o-d", "o-a", "o-c", "o-e"}

	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		perm := make([]*bidding.Offer, len(offers))
		for i, j := range rng.Perm(len(offers)) {
			perm[i] = offers[j]
		}
		scale := BlockScale([]*bidding.Request{r}, perm)

		naive := offerIDs(BestOffers(r, perm, scale, cfg))
		ix := NewIndex([]*bidding.Request{r}, perm, scale)
		indexed := offerIDs(ix.BestOffers(0, cfg, NewScratch()))

		if fmt.Sprint(naive) != fmt.Sprint(want) {
			t.Fatalf("trial %d: naive order %v, want %v", trial, naive, want)
		}
		if fmt.Sprint(indexed) != fmt.Sprint(want) {
			t.Fatalf("trial %d: indexed order %v, want %v", trial, indexed, want)
		}
	}
}

// TestTopKBoundedSelection checks the MaxBestOffers cap interacts with
// ties the same way the full sort does: the k survivors are the first k
// of the total order, not an arbitrary subset of the tied group.
func TestTopKBoundedSelection(t *testing.T) {
	r := req("r", resource.Vector{resource.CPU: 4})
	var offers []*bidding.Offer
	for i := 0; i < 20; i++ {
		o := off(fmt.Sprintf("o-%02d", 19-i), resource.Vector{resource.CPU: 8})
		o.Submitted = 3 // all tied on time AND quality: ID decides
		offers = append(offers, o)
	}
	cfg := DefaultConfig()
	cfg.MaxBestOffers = 4
	scale := BlockScale([]*bidding.Request{r}, offers)
	ix := NewIndex([]*bidding.Request{r}, offers, scale)

	want := []string{"o-00", "o-01", "o-02", "o-03"}
	if got := offerIDs(ix.BestOffers(0, cfg, NewScratch())); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("indexed top-k = %v, want %v", got, want)
	}
	if got := offerIDs(BestOffers(r, offers, scale, cfg)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("naive top-k = %v, want %v", got, want)
	}
}

// wideBlock builds a deterministic market with more than 64 distinct
// resource kinds and multi-kind orders that straddle the 64-bit word
// boundary, so the multi-word mask specialization (nw ≥ 2) is exercised
// with cross-word intersections, not just one bit per order.
func wideBlock(seed int64, nr, no, nk int) ([]*bidding.Request, []*bidding.Offer) {
	rng := rand.New(rand.NewSource(seed))
	kinds := make([]resource.Kind, nk)
	for i := range kinds {
		kinds[i] = resource.Kind(fmt.Sprintf("kind-%03d", i))
	}
	vec := func(scale float64) resource.Vector {
		v := make(resource.Vector)
		n := 2 + rng.Intn(6)
		for _, i := range rng.Perm(len(kinds))[:n] {
			v[kinds[i]] = scale * (0.5 + rng.Float64()*4)
		}
		// Guarantee word-straddling masks now and then.
		if rng.Intn(2) == 0 {
			v[kinds[rng.Intn(64)]] = scale
			v[kinds[64+rng.Intn(nk-64)]] = scale
		}
		return v
	}
	reqs := make([]*bidding.Request, nr)
	for i := range reqs {
		start := int64(rng.Intn(50))
		end := start + 20 + int64(rng.Intn(80))
		r := &bidding.Request{
			ID:        bidding.OrderID(fmt.Sprintf("r%03d", i)),
			Client:    bidding.ParticipantID(fmt.Sprintf("c%03d", i)),
			Resources: vec(1),
			Start:     start, End: end,
			Duration:  (end - start) / 2,
			Bid:       1 + rng.Float64()*10,
			Submitted: int64(rng.Intn(8)),
			Location:  bidding.Location{X: rng.Float64(), Y: rng.Float64()},
		}
		if rng.Intn(3) == 0 {
			r.Flexibility = 0.6 + rng.Float64()*0.4
		}
		reqs[i] = r
	}
	offs := make([]*bidding.Offer, no)
	for i := range offs {
		start := int64(rng.Intn(60))
		offs[i] = &bidding.Offer{
			ID:        bidding.OrderID(fmt.Sprintf("o%03d", i)),
			Provider:  bidding.ParticipantID(fmt.Sprintf("p%03d", i)),
			Resources: vec(2),
			Start:     start, End: start + 40 + int64(rng.Intn(120)),
			Bid:       rng.Float64() * 5,
			Submitted: int64(rng.Intn(8)),
			Location:  bidding.Location{X: rng.Float64(), Y: rng.Float64()},
		}
	}
	return reqs, offs
}

// TestIndexWideBlock drives blocks past 64 distinct resource kinds: the
// multi-word mask specialization must produce exactly the reference
// best-offer sets — same membership, same order — with no fallback.
func TestIndexWideBlock(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		reqs, offs := wideBlock(seed, 40, 60, 100)
		scale := BlockScale(reqs, offs)
		ix := NewIndex(reqs, offs, scale)
		if len(ix.Kinds()) <= 64 {
			t.Fatalf("seed %d: block should exceed 64 kinds, got %d", seed, len(ix.Kinds()))
		}
		if ix.MaskWords() < 2 {
			t.Fatalf("seed %d: wide block should use multi-word masks, nw=%d", seed, ix.MaskWords())
		}
		cfg := DefaultConfig()
		if seed%2 == 1 {
			cfg.MaxBestOffers = 3
		}
		var s Scratch
		for ri, r := range ix.Requests() {
			want := offerIDs(BestOffers(r, offs, scale, cfg))
			got := offerIDs(ix.BestOffers(ri, cfg, &s))
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Fatalf("seed %d: wide path diverges for %s: %v != %v", seed, r.ID, got, want)
			}
		}
	}
}

// TestIndexScratchReuse builds different blocks through one reused
// IndexScratch and cross-checks each against a freshly allocated index:
// arena-backed construction must be invisible to the results, across
// epochs, for both narrow and wide blocks.
func TestIndexScratchReuse(t *testing.T) {
	scratch := NewIndexScratch()
	cfg := DefaultConfig()
	for epoch := int64(0); epoch < 6; epoch++ {
		var reqs []*bidding.Request
		var offs []*bidding.Offer
		if epoch%2 == 0 {
			reqs, offs = randomBlock(epoch, 30, 45)
		} else {
			reqs, offs = wideBlock(epoch, 25, 35, 80)
		}
		scale := BlockScale(reqs, offs)
		scratch.Reset()
		ix := NewIndexWith(reqs, offs, scale, scratch)
		ref := NewIndex(reqs, offs, scale)
		if fmt.Sprint(ix.Kinds()) != fmt.Sprint(ref.Kinds()) {
			t.Fatalf("epoch %d: kind tables differ", epoch)
		}
		var s Scratch
		for ri := range ix.Requests() {
			want := offerIDs(ref.BestOffers(ri, cfg, NewScratch()))
			got := offerIDs(ix.BestOffers(ri, cfg, &s))
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Fatalf("epoch %d request %d: scratch-built %v != fresh %v", epoch, ri, got, want)
			}
		}
	}
}

// TestBestOffersAllReferenceAgreesWithIndexed pins the package-level
// entry point both ways across worker counts.
func TestBestOffersAllReferenceAgreesWithIndexed(t *testing.T) {
	reqs, offs := randomBlock(7, 60, 80)
	ix := NewIndex(reqs, offs, BlockScale(reqs, offs))
	cfg := DefaultConfig()
	want := make([][]*bidding.Offer, len(ix.Requests()))
	for i, r := range ix.Requests() {
		want[i] = BestOffers(r, ix.Offers(), ix.Scale(), cfg)
	}
	for _, workers := range []int{1, 2, 4} {
		got := BestOffersAll(ix, cfg, workers)
		for i := range want {
			if fmt.Sprint(offerIDs(want[i])) != fmt.Sprint(offerIDs(got[i])) {
				t.Fatalf("workers=%d request %d: %v != %v", workers, i, offerIDs(got[i]), offerIDs(want[i]))
			}
		}
	}
}

// The hot-path microbenchmarks: the naive scan-sort matcher vs the
// indexed engine on the same block. The allocs/op column is the payoff
// of the fused feasibility+quality intersection and the scratch-buffer
// top-k — the indexed path allocates only the result slices.

func benchBlock() ([]*bidding.Request, []*bidding.Offer, *resource.Scale) {
	reqs, offs := randomBlock(1, 200, 300)
	return reqs, offs, BlockScale(reqs, offs)
}

func BenchmarkBestOffersNaive(b *testing.B) {
	reqs, offs, scale := benchBlock()
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			if BestOffers(r, offs, scale, cfg) == nil {
				continue
			}
		}
	}
}

func BenchmarkBestOffersIndexed(b *testing.B) {
	reqs, offs, scale := benchBlock()
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := NewIndex(reqs, offs, scale)
		var s Scratch
		for ri := range ix.Requests() {
			if ix.BestOffers(ri, cfg, &s) == nil {
				continue
			}
		}
	}
}

// BenchmarkBestOffersIndexedScan isolates the per-request scan cost with
// the index already built (the amortized regime of big blocks). Every
// offer of benchBlock has a shape of its own, so each is a one-member
// class; BenchmarkBestOffersIndexedScanShapes is the same block with
// four shapes, the class walk's side.
func BenchmarkBestOffersIndexedScan(b *testing.B) {
	reqs, offs, _ := benchBlock()
	benchScan(b, reqs, offs)
}

func BenchmarkBestOffersIndexedScanShapes(b *testing.B) {
	reqs, offs, _ := benchBlock()
	for i, o := range offs {
		c := *o
		c.Resources = offs[i%4].Resources
		offs[i] = &c
	}
	benchScan(b, reqs, offs)
}

func benchScan(b *testing.B, reqs []*bidding.Request, offs []*bidding.Offer) {
	cfg := DefaultConfig()
	ix := NewIndex(reqs, offs, BlockScale(reqs, offs))
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ri := i % len(reqs)
		if ix.BestOffers(ri, cfg, &s) == nil {
			continue
		}
	}
}
