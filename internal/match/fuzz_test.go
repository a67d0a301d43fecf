package match

import (
	"fmt"
	"math"
	"testing"

	"decloud/internal/bidding"
	"decloud/internal/resource"
)

// fuzzXs is the menu of X coordinates a fuzzed order picks from: the
// centre x0, the reach boundaries x0 ± R and their neighbours one ulp
// either side, points inside and outside the reach, and far-away and
// huge coordinates. Picking from a menu, not from raw bytes, is what
// puts offers exactly on the strip's edges.
func fuzzXs(x0, R float64) []float64 {
	up, down := math.Inf(1), math.Inf(-1)
	return []float64{
		x0, x0 + R, x0 - R,
		math.Nextafter(x0+R, up), math.Nextafter(x0+R, down),
		math.Nextafter(x0-R, up), math.Nextafter(x0-R, down),
		x0 + R/2, x0 - R/3, x0 + 2*R, x0 - 1.5*R,
		-x0, 1e300, -1e300, 0, x0 + 1e-9,
	}
}

// fuzzYs is the Y menu: y0 first, so an order on it lies on the X axis
// through the centre.
func fuzzYs(y0, R float64) []float64 {
	return []float64{y0, y0 + R/2, y0 - R, y0 + R, math.Nextafter(y0, math.Inf(1)), -y0, 1e300, -1e300}
}

// fuzzBlock decodes a block: one request at (x0, y0) with radius R,
// then one order per 4 input bytes — kind (3 in 4 are offers), X and Y
// menu picks, and a byte that sets quantities, time window and, for a
// request, whether it has a reach. Orders that fail validation are
// dropped, as the mechanism's intake drops them.
func fuzzBlock(R, x0, y0 float64, data []byte) ([]*bidding.Request, []*bidding.Offer) {
	xs, ys := fuzzXs(x0, R), fuzzYs(y0, R)
	reqs := []*bidding.Request{{
		ID: "r00", Client: "c00", Resources: resource.Vector{resource.CPU: 1},
		Start: 2, End: 40, Duration: 10, Bid: 5,
		Location: bidding.Location{X: x0, Y: y0}, MaxDistance: R,
	}}
	var offs []*bidding.Offer
	for i := 0; i+4 <= len(data) && i < 4*64; i += 4 {
		kind, x, y, b := data[i], xs[int(data[i+1])%len(xs)], ys[int(data[i+2])%len(ys)], data[i+3]
		loc := bidding.Location{X: x, Y: y}
		if kind%4 == 3 {
			r := &bidding.Request{
				ID: bidding.OrderID(fmt.Sprintf("r%02d", i/4+1)), Client: bidding.ParticipantID(fmt.Sprintf("c%02d", i/4+1)),
				Submitted: int64(b % 3), Resources: resource.Vector{resource.CPU: float64(1 + b%3)},
				Start: int64(b % 5), End: 40, Duration: 10, Bid: 5, Location: loc,
			}
			if b&0x80 == 0 {
				r.MaxDistance = R
			}
			if b&0x40 != 0 {
				r.Resources[resource.RAM] = 2
			}
			reqs = append(reqs, r)
			continue
		}
		o := &bidding.Offer{
			ID: bidding.OrderID(fmt.Sprintf("o%02d", i/4)), Provider: bidding.ParticipantID(fmt.Sprintf("p%02d", i/4)),
			Submitted: int64(b % 3), Resources: resource.Vector{resource.CPU: float64(4 + b%8/4)},
			Start: int64(b>>3) % 4, End: 100 - 70*int64(b>>5&1), Bid: 1, Location: loc,
		}
		if b&0x40 != 0 {
			o.Resources[resource.RAM] = 4
		}
		offs = append(offs, o)
	}
	var vr []*bidding.Request
	for _, r := range reqs {
		if r.Validate() == nil {
			vr = append(vr, r)
		}
	}
	var vo []*bidding.Offer
	for _, o := range offs {
		if o.Validate() == nil {
			vo = append(vo, o)
		}
	}
	return vr, vo
}

// FuzzIndexMatchesReference holds Index.BestOffers to the brute-force
// BestOffers, request by request and ID for ID, over validated blocks
// decoded from the input (fuzzBlock). The seeds put every menu point
// on the X axis through the centre, then scatter requests and offers,
// under radii of 0, 0.015, 0.25, 1.5, tiny (1e-300 and the smallest
// subnormal, where dx² underflows) and +Inf, around centres that are
// negative, huge (±1e300) or 1e16 (where an ulp is 2).
func FuzzIndexMatchesReference(f *testing.F) {
	var axis, mixed []byte
	for i := range fuzzXs(0, 0) {
		axis = append(axis, 0, byte(i), 0, 0)
		mixed = append(mixed, byte(i%4), byte(i), byte(i*3), byte(i*37))
	}
	for _, c := range []struct{ R, x0, y0 float64 }{
		{0.015, 0.5, 0.5}, {0, 0.3, 0.7}, {1e-300, 0, 0}, {5e-324, 0, 0},
		{math.Inf(1), 0.2, 0.1}, {0.25, -3.75, 1e-9}, {1e-3, 1e300, -1e300},
		{1.5, 1e16, 3}, {0.015, 0.3, 0.7}, {1e-300, 0.5, -0.25},
	} {
		f.Add(c.R, c.x0, c.y0, axis)
		f.Add(c.R, c.x0, c.y0, mixed)
	}
	f.Fuzz(func(t *testing.T, R, x0, y0 float64, data []byte) {
		reqs, offs := fuzzBlock(R, x0, y0, data)
		scale := BlockScale(reqs, offs)
		ix := NewIndex(reqs, offs, scale)
		cfg := DefaultConfig()
		var s Scratch
		for ri, r := range ix.Requests() {
			want := offerIDs(BestOffers(r, offs, scale, cfg))
			got := offerIDs(ix.BestOffers(ri, cfg, &s))
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Fatalf("request %s at %v, radius %g: indexed %v != reference %v", r.ID, r.Location, r.MaxDistance, got, want)
			}
		}
	})
}
