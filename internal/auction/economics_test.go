package auction

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"decloud/internal/bidding"
	"decloud/internal/cluster"
	"decloud/internal/match"
	"decloud/internal/resource"
)

// TestDenseNuMatchesNuOf holds the dense ν that prices a trade
// (scaleRows.nu) to NuOf over the granted vector, bit for bit: whole,
// partial, zero and above-maximum grants, against clusters whose
// critical set leaves some of their kinds out.
func TestDenseNuMatchesNuOf(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		reqs, offs := randomMarket(rnd, 8+rnd.Intn(20), 3+rnd.Intn(6))
		// Vary the demanded kinds, so that K_CR (the critical set plus
		// the kinds every request demands) is not all of K_CL.
		for _, o := range offs {
			o.Resources[resource.Disk] = 50 + rnd.Float64()*500
		}
		for _, r := range reqs {
			switch rnd.Intn(3) {
			case 0:
				r.Resources[resource.Disk] = 0.1 + rnd.Float64()*100
			case 1:
				delete(r.Resources, resource.RAM)
			}
		}
		ix := match.NewIndex(reqs, offs, match.BlockScale(reqs, offs))
		kinds := ix.Kinds()
		crit := map[resource.Kind]bool{kinds[rnd.Intn(len(kinds))]: true}
		ecs, _ := economicsByScale(cluster.BuildIndex(ix, match.DefaultConfig(), 1), crit, ix, false, 1)
		for _, ec := range ecs {
			cl := ec.Cluster
			for _, er := range ec.Requests {
				g := make([]float64, len(kinds))
				for k := range g {
					switch rnd.Intn(4) {
					case 1:
						g[k] = er.d.row[k]
					case 2:
						g[k] = er.d.row[k] * rnd.Float64()
					case 3:
						g[k] = rnd.Float64() * 1e4
					}
				}
				want := ec.NuOf(grantVector(kinds, er, g))
				if got := ec.rows.nu(er.d.mask, g); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d, cluster %s, request %s: dense ν %v, NuOf %v", trial, cl.Key(), er.Request.ID, got, want)
				}
				checked++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d grants checked", checked)
	}
}

// TestEconomicsByScaleMatchesMapPath holds the per-key tables to the map
// path (ComputeEconomics, with bindRows), cluster by cluster: member
// order, every Nu, VHat and CHat bit, each member's dense row and mask,
// Scale, Critical, and which orders are dropped. The markets draw each
// order's kinds from a pool, so clusters get different K_CL, M_CL and
// K_CR; every fourth one has more than 64 kinds. Besides the clusters
// Algorithm 2 forms, each block gets hand-made ones over random member
// subsets, several to an offer set so that keys differ in K_CR alone,
// where offers of kinds no member request demands have ν = 0,
// requests of zero duration and offers of zero window are dropped, and
// cloned requests tie on v̂ exactly, broken by Submitted and then ID.
func TestEconomicsByScaleMatchesMapPath(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	keyed, droppedReq, droppedOff, ties := 0, 0, 0, 0
	for trial := 0; trial < 48; trial++ {
		reqs, offs := scaleMarket(rnd, trial%4 == 3)
		ix := match.NewIndex(reqs, offs, match.BlockScale(reqs, offs))
		clusters := cluster.BuildIndex(ix, match.DefaultConfig(), 1)
		// Four offer sets, each under several request sets: clusters that
		// share M_CL and differ in K_CR, or in K_CL.
		for range 4 {
			var offers []*bidding.Offer
			for _, o := range ix.Offers() {
				if rnd.Intn(3) == 0 {
					offers = append(offers, o)
				}
			}
			for range 6 {
				// Few requests, so that the kinds all of them demand vary.
				cl, odds := &cluster.Cluster{Offers: offers}, 3+rnd.Intn(2)*len(ix.Requests())/2
				for _, r := range ix.Requests() {
					if rnd.Intn(odds) == 0 {
						cl.Requests = append(cl.Requests, r)
					}
				}
				if len(cl.Requests) > 0 && len(cl.Offers) > 0 {
					clusters = append(clusters, cl)
				}
			}
		}
		crit := map[resource.Kind]bool{ix.Kinds()[rnd.Intn(len(ix.Kinds()))]: true, "absent": true}
		if trial%5 == 0 {
			crit = nil // resource.DefaultCritical()
		}
		for _, keep := range []bool{false, true} {
			ecs, nu := economicsByScale(clusters, crit, ix, keep, 1+trial%3)
			tables := make(map[*EconCluster]bool)
			for i, cl := range clusters {
				want := ComputeEconomics(cl, crit)
				want.bindRows(ix)
				sameEcon(t, fmt.Sprintf("trial %d keep %v cluster %d", trial, keep, i), ecs[i], want)
				tables[ecs[i].table] = true
				droppedReq += len(cl.Requests) - len(want.Requests)
				droppedOff += len(cl.Offers) - len(want.Offers)
				for j := 1; j < len(want.Requests); j++ {
					if want.Requests[j].VHat == want.Requests[j-1].VHat {
						ties++
					}
				}
			}
			if n := len(ix.Requests()) + len(ix.Offers()); nu > n*len(tables) {
				t.Fatalf("trial %d: %d ν evaluations, above %d orders × %d keys", trial, nu, n, len(tables))
			}
			keyed += len(tables)
		}
	}
	if keyed < 5*48*2 || droppedReq == 0 || droppedOff == 0 || ties == 0 {
		t.Fatalf("%d keys, %d requests and %d offers dropped, %d v̂ ties: the markets miss a case", keyed, droppedReq, droppedOff, ties)
	}
}

// scaleMarket draws a block whose orders demand and offer kinds from a
// pool of 8 or, wide, 70 kinds.
func scaleMarket(rnd *rand.Rand, wide bool) ([]*bidding.Request, []*bidding.Offer) {
	pool := []resource.Kind{resource.CPU, resource.RAM, resource.Disk, "gpu", "fpga", "net", "ssd", "tpu"}
	if wide {
		for i := len(pool); i < 70; i++ {
			pool = append(pool, resource.Kind(fmt.Sprintf("k%02d", i)))
		}
	}
	kinds := func(n int) resource.Vector {
		v := resource.Vector{resource.CPU: float64(1 + rnd.Intn(8))}
		for range n {
			v[pool[rnd.Intn(len(pool))]] = float64(1+rnd.Intn(32)) / 4
		}
		return v
	}
	var offs []*bidding.Offer
	for j := range 6 + rnd.Intn(6) {
		o := mkOff(fmt.Sprintf("o%03d", j), fmt.Sprintf("p%03d", j), 16, 64, float64(2+rnd.Intn(10)))
		o.Resources = kinds(2 + rnd.Intn(6))
		o.Resources[resource.CPU] = 16
		o.Submitted = int64(rnd.Intn(4))
		switch rnd.Intn(8) {
		case 0:
			o.End = o.Start // zero window
		case 1:
			o.Resources = resource.Vector{"offer-only": 4} // ν = 0 wherever no request demands it
		}
		offs = append(offs, o)
	}
	var reqs []*bidding.Request
	for i := range 20 + rnd.Intn(20) {
		r := mkReq(fmt.Sprintf("r%03d", i), fmt.Sprintf("c%03d", i), 1, 1, float64(1+rnd.Intn(20)))
		r.Resources = kinds(rnd.Intn(3))
		r.Duration = int64(rnd.Intn(40)) // 0: dropped
		r.Submitted = int64(rnd.Intn(4))
		if i > 0 && rnd.Intn(4) == 0 { // an exact v̂ tie with an earlier request
			c := *reqs[rnd.Intn(len(reqs))]
			c.ID, c.Client, c.Submitted = r.ID, r.Client, r.Submitted
			r = &c
		}
		reqs = append(reqs, r)
	}
	return reqs, offs
}

// sameEcon fails unless the indexed economics equal the map path's.
func sameEcon(t *testing.T, label string, got, want *EconCluster) {
	t.Helper()
	if got.Cluster != want.Cluster || !maps.Equal(got.Critical, want.Critical) ||
		!sameBits(got.Scale.MaxVector(), want.Scale.MaxVector()) || len(got.Scale.MaxVector()) != len(want.Scale.MaxVector()) {
		t.Fatalf("%s: cluster, Critical or Scale differ: %v %v / %v %v", label, got.Critical, got.Scale.MaxVector(), want.Critical, want.Scale.MaxVector())
	}
	sameRow := func(a, b *dense) bool { return slices.Equal(a.row, b.row) && slices.Equal(a.mask, b.mask) }
	if len(got.Requests) != len(want.Requests) || len(got.Offers) != len(want.Offers) {
		t.Fatalf("%s: %d requests and %d offers kept, map path %d and %d", label, len(got.Requests), len(got.Offers), len(want.Requests), len(want.Offers))
	}
	for j, w := range want.Requests {
		g := got.Requests[j]
		if g.Request != w.Request || math.Float64bits(g.Nu) != math.Float64bits(w.Nu) ||
			math.Float64bits(g.VHat) != math.Float64bits(w.VHat) || !sameRow(g.d, w.d) || g.d.id != w.d.id {
			t.Fatalf("%s: request %d is %s ν %v v̂ %v, map path %s ν %v v̂ %v", label, j, g.Request.ID, g.Nu, g.VHat, w.Request.ID, w.Nu, w.VHat)
		}
	}
	for j, w := range want.Offers {
		g := got.Offers[j]
		if g.Offer != w.Offer || math.Float64bits(g.Nu) != math.Float64bits(w.Nu) ||
			math.Float64bits(g.CHat) != math.Float64bits(w.CHat) || !sameRow(g.d, w.d) {
			t.Fatalf("%s: offer %d is %s ν %v ĉ %v, map path %s ν %v ĉ %v", label, j, g.Offer.ID, g.Nu, g.CHat, w.Offer.ID, w.Nu, w.CHat)
		}
	}
}
