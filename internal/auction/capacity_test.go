package auction

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"decloud/internal/bidding"
	"decloud/internal/match"
	"decloud/internal/resource"
)

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

		dense := newAggregate()
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
				g, ok := dense.TryGrant(ers[ri], eos[oi])
				if ok != (want != nil) {
					t.Fatalf("step %d: %s on %s: dense ok=%v, map grant %v", step, reqs[ri].ID, offs[oi].ID, ok, want)
				}
				if !ok {
					break
				}
				got := grantVector(table, ers[ri], g)
				if !sameBits(got, want) {
					t.Fatalf("step %d: dense grant %v, map grant %v", step, got, want)
				}
				if d, m := grantFraction(ers[ri], eos[oi], g), Fraction(want, reqs[ri], offs[oi]); math.Float64bits(d) != math.Float64bits(m) {
					t.Fatalf("step %d: dense φ %v, map φ %v", step, d, m)
				}
				if op != 5 { // op 5 only probes
					dense.Commit(ers[ri], eos[oi], g)
					oracle.Commit(offs[oi], want, reqs[ri].Duration)
				}
			}
			for oi, o := range offs {
				rem := o.Resources.Scale(float64(o.Window()))
				if i, ok := dense.at[o]; ok {
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
