package auction

import (
	"math"
	"math/rand"
	"testing"

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
		for _, cl := range cluster.BuildIndex(ix, match.DefaultConfig(), 1) {
			ec := ComputeEconomicsIndexed(cl, crit, ix)
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
