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
// then one order per 4 input bytes (at most 128) — a kind byte, an X
// and a Y byte, and a byte b. The kind byte's low two bits make 3 in 4
// orders offers; its upper six, when not zero, give the order one of 63
// extra kinds, so a block can hold 65. The X and Y bytes pick from the
// menus; the X byte's upper four bits add sixteenths of a core to an
// offer, so every offer of a block can have a shape of its own. The Y
// byte's top bit gives a request a MaxDistance of +Inf; for an offer,
// its bit 6 moves the end to r000's and its bits 3–5 add eighths to
// the extra kind. b sets quantities, time window and, for a request,
// whether it has a reach.
// Orders that fail validation are dropped, as the mechanism's intake
// drops them.
func fuzzBlock(R, x0, y0 float64, data []byte) ([]*bidding.Request, []*bidding.Offer) {
	xs, ys := fuzzXs(x0, R), fuzzYs(y0, R)
	reqs := []*bidding.Request{{
		ID: "r000", Client: "c000", Resources: resource.Vector{resource.CPU: 1},
		Start: 2, End: 40, Duration: 10, Bid: 5,
		Location: bidding.Location{X: x0, Y: y0}, MaxDistance: R,
	}}
	var offs []*bidding.Offer
	for i := 0; i+4 <= len(data) && i < 4*128; i += 4 {
		kind, xb, yb, b := data[i], data[i+1], data[i+2], data[i+3]
		loc := bidding.Location{X: xs[int(xb)%len(xs)], Y: ys[int(yb)%len(ys)]}
		extra := resource.Kind(fmt.Sprintf("x%02d", kind>>2))
		if kind%4 == 3 {
			r := &bidding.Request{
				ID: bidding.OrderID(fmt.Sprintf("r%03d", i/4+1)), Client: bidding.ParticipantID(fmt.Sprintf("c%03d", i/4+1)),
				Submitted: int64(b % 3), Resources: resource.Vector{resource.CPU: float64(1 + b%3)},
				Start: int64(b % 5), End: 40, Duration: 10, Bid: 5, Location: loc,
			}
			switch {
			case yb&0x80 != 0:
				r.MaxDistance = math.Inf(1)
			case b&0x80 == 0:
				r.MaxDistance = R
			}
			if b&0x40 != 0 {
				r.Resources[resource.RAM] = 2
			}
			if kind>>2 != 0 {
				r.Resources[extra] = 1
			}
			reqs = append(reqs, r)
			continue
		}
		o := &bidding.Offer{
			ID: bidding.OrderID(fmt.Sprintf("o%03d", i/4)), Provider: bidding.ParticipantID(fmt.Sprintf("p%03d", i/4)),
			Submitted: int64(b % 3), Resources: resource.Vector{resource.CPU: float64(4+b%8/4) + float64(xb>>4)/16},
			Start: int64(b>>3) % 4, End: 100 - 70*int64(b>>5&1) - 60*int64(yb>>6&1), Bid: 1, Location: loc,
		}
		if b&0x40 != 0 {
			o.Resources[resource.RAM] = 4
		}
		if kind>>2 != 0 {
			o.Resources[extra] = 2 + float64(yb>>3&7)/8
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
// negative, huge (±1e300) or 1e16 (where an ulp is 2). The class seeds
// feed the class walk: four shapes with many ties; every offer a shape
// of its own; two shapes of equal quality for a request that demands
// only the kind they share; classes of 31, 32 and 33 members whose
// 32-position runs start at and straddle class edges; 65 kinds; and
// requests with a reach, without one and with a MaxDistance of +Inf in
// one block.
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

	var heavy, free, cross, reach, wide []byte
	for j := range 64 {
		shape, window := []byte{0x00, 0x04, 0x40, 0x44}[j%4], []byte{0x00, 0x08, 0x18, 0x20}[j/4%4]
		heavy = append(heavy, byte(j%7/6*3), byte(j%16), byte(j%5/4)<<6, shape|window)
		if j%8 == 7 {
			free = append(free, 3, byte(j), 0, 0x80|byte(j%3))
		} else {
			free = append(free, 0, byte(j%16)<<4|byte(j%16), 0, byte(j/16%2*4|j/32*0x40))
		}
		if j%10 == 9 {
			cross = append(cross, 3, byte(j), 0, 0x80|byte(j%3))
		} else {
			cross = append(cross, 0, byte(j%16), 0, []byte{0x00, 0x40, 0x01, 0x41, 0x02, 0x42}[j%6])
		}
		switch {
		case j%3 != 2:
			reach = append(reach, 0, byte(j), byte(j*5), byte(j*37))
		case j/3%3 == 0:
			reach = append(reach, 3, byte(j), byte(j*5)&0x7f, byte(j)&0x3f)
		case j/3%3 == 1:
			reach = append(reach, 3, byte(j), byte(j*5)&0x7f, 0x80|byte(j)&0x3f)
		default:
			reach = append(reach, 3, byte(j), byte(j*5)|0x80, byte(j)&0x3f)
		}
	}
	for k := 1; k < 64; k++ {
		wide = append(wide, byte(k<<2), byte(k%16), 0, byte(k%3)|0x40)
		if k%4 == 0 {
			wide = append(wide, byte(k<<2), byte(k%16), 0x08, byte(k%3)|0x40)
			wide = append(wide, byte(k<<2|3), byte(k), 0, 0x80)
		}
	}
	for _, data := range [][]byte{heavy, free, cross} {
		for _, R := range []float64{0, math.Inf(1), 0.25} {
			f.Add(R, 0.5, 0.5, data)
		}
	}
	for _, sizes := range [][]int{{31, 33}, {32, 32}, {33, 31}, {32, 33, 31}, {65}} {
		// Every member of a class is out of r000's window but its last
		// and, in a class of more than 64, its first: so whole runs at a
		// class's start, in its middle and across its edges rule out.
		// Out means starting after r000, or ending before it while the
		// members in ending exactly with it.
		for _, out := range [][2]byte{{0x18, 0}, {0x20, 0x40}} {
			var runs []byte
			for c, n := range sizes {
				for m := range n {
					b, yb := []byte{0x00, 0x04, 0x40}[c], out[1]
					if m < n-1 && (n <= 64 || m > 0) {
						b, yb = b|out[0], 0
					}
					runs = append(runs, 0, byte(m%16), yb, b)
				}
			}
			f.Add(0.0, 0.5, 0.5, runs)
			f.Add(math.Inf(1), 0.5, 0.5, runs)
		}
	}
	f.Add(0.0, 0.5, 0.5, wide)
	f.Add(0.25, 0.5, 0.5, wide)
	f.Add(0.25, 0.5, 0.5, reach)
	f.Add(0.015, 0.5, 0.5, reach)
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

// FuzzDigestFeasibleMatchesFeasible holds the order book's fresh-offer
// test, DigestFeasible over two digests of one scratch, to Feasible
// over the orders themselves. Each 3-byte step sets a request or offer
// quantity from a menu with zero, negative, tiny and infinite values,
// puts an offer quantity on the request's cover threshold or one ulp
// either side, moves the offer's window or location to a boundary, or
// interns a kind ahead of the digests so intern IDs do not follow
// names. Flexibility and radius come raw: unset, 1, fractional, tiny,
// negative or NaN; the offer's location is the request's, on the
// radius, or one ulp beyond it.
func FuzzDigestFeasibleMatchesFeasible(f *testing.F) {
	f.Add([]byte{0, 0, 4, 0, 1, 5, 3, 0, 3, 3, 1, 4}, 0.0, 0.0)
	f.Add([]byte{0, 0, 4, 0, 2, 1, 3, 0, 2, 3, 2, 0}, 0.8, 0.5)
	f.Add([]byte{4, 3, 5, 4, 0, 2, 4, 2, 1, 1, 1, 3, 2, 3, 3}, 1e-10, 0.0)
	f.Add([]byte{1, 0, 5, 1, 1, 1, 2, 1, 4, 1, 3, 4}, 0.5, math.Inf(1))
	f.Add([]byte{2, 0, 3, 2, 2, 0, 0, 3, 1, 0, 3, 5}, 1.0, 0.25)
	f.Add([]byte{0, 0, 4, 0, 1, 4}, 0.5, math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, flex, radius float64) {
		kinds := []resource.Kind{"cpu", "disk", "gpu", "ram", "zz"}
		qs := []float64{0, -1, 1e-12, 0.5, 1, 4, 16, math.Inf(1)}
		r := &bidding.Request{ID: "r", Resources: resource.Vector{}, Start: 10, End: 20, Flexibility: flex, MaxDistance: radius}
		o := &bidding.Offer{ID: "o", Resources: resource.Vector{}, Start: 10, End: 20}
		s := NewIndexScratch()
		for ; len(data) >= 3; data = data[3:] {
			k, v := kinds[int(data[0])%len(kinds)], data[2]
			switch data[1] % 4 {
			case 0:
				r.Resources[k] = qs[int(v)%len(qs)]
			case 1:
				o.Resources[k] = qs[int(v)%len(qs)]
			case 2:
				thr := resource.CoverThreshold(r.Resources[k], r.Flex())
				o.Resources[k] = []float64{thr, math.Nextafter(thr, math.Inf(-1)), math.Nextafter(thr, math.Inf(1))}[v%3]
			default:
				switch v % 6 {
				case 0:
					o.Start = r.Start + 1
				case 1:
					o.End = r.End - 1
				case 2:
					o.Start, o.End = r.Start-5, r.End+5
				case 3:
					o.Location.X = radius
				case 4:
					o.Location.X = math.Nextafter(radius, math.Inf(1))
				default:
					s.DigestOffer(&bidding.Offer{Resources: resource.Vector{k: 1}})
				}
			}
		}
		rd, od := s.DigestRequest(r), s.DigestOffer(o)
		if got, want := DigestFeasible(&rd, &od), Feasible(r, o); got != want {
			t.Fatalf("DigestFeasible %v, Feasible %v: request %v flex %g reach %g [%d,%d], offer %v at %v [%d,%d]",
				got, want, r.Resources, r.Flexibility, r.MaxDistance, r.Start, r.End, o.Resources, o.Location, o.Start, o.End)
		}
	})
}
