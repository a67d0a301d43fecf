package workload

import (
	"fmt"
	"math"
	"math/rand"

	"decloud/internal/bidding"
	"decloud/internal/resource"
	"decloud/internal/trace"
)

// DivergentConfig generates the markets of the flexibility experiments
// (Figures 5d–5f): supply and demand concentrate on different machine
// classes, with Skew controlling how far apart the distributions are —
// "e.g., when clients want mostly 8 cores CPUs, the majority of offered
// CPUs have only 2 cores" (Section V).
type DivergentConfig struct {
	Config
	// Skew ∈ [0, 1]: 0 makes demand mirror the supply's class
	// distribution (similarity ≈ 1); 1 concentrates demand on the class
	// the supply has least of (high divergence).
	Skew float64
}

// supplyClassDist is the probability of each M5 class among offers:
// plenty of small machines, few big ones (the typical edge fleet).
var supplyClassDist = []float64{0.4, 0.3, 0.2, 0.1}

// GenerateDivergent builds a market with controlled supply/demand
// divergence. It returns the market and the realized similarity
// 1 − KLD(demand ‖ supply) over machine-class histograms — the x-axis of
// Figures 5d–5f.
func GenerateDivergent(cfg DivergentConfig) (*Market, float64) {
	base := cfg.Config.withDefaults()
	rnd := rand.New(rand.NewSource(base.Seed))
	catalog := trace.M5Catalog()
	horizonHours := float64(base.HorizonSec) / 3600

	// Demand distribution: interpolate between the supply distribution
	// and a demand profile concentrated on the classes the supply has
	// least of. The target keeps some mass everywhere so the divergence
	// stays in a realistic range (similarity ∈ ~[0.25, 1]).
	divergedDemand := []float64{0.05, 0.15, 0.3, 0.5}
	demandDist := make([]float64, len(supplyClassDist))
	for i, p := range supplyClassDist {
		demandDist[i] = (1-cfg.Skew)*p + cfg.Skew*divergedDemand[i]
	}

	m := &Market{}
	offerClasses := make([]float64, 0, base.Providers)
	for j := 0; j < base.Providers; j++ {
		ci := sampleClass(rnd, supplyClassDist)
		it := catalog[ci]
		offerClasses = append(offerClasses, float64(ci))
		cost := it.CostFor(horizonHours) * (0.7 + 0.6*rnd.Float64())
		start := rnd.Int63n(base.HorizonSec/8 + 1)
		end := base.HorizonSec - rnd.Int63n(base.HorizonSec/8+1)
		m.Offers = append(m.Offers, &bidding.Offer{
			ID:        bidding.OrderID(fmt.Sprintf("o%04d", j)),
			Provider:  bidding.ParticipantID(fmt.Sprintf("provider-%04d", j)),
			Submitted: int64(j),
			Resources: it.Resources(),
			Start:     start,
			End:       end,
			Bid:       cost * float64(end-start) / float64(base.HorizonSec),
			TrueCost:  cost * float64(end-start) / float64(base.HorizonSec),
		})
	}

	reqClasses := make([]float64, 0, base.Requests)
	for i := 0; i < base.Requests; i++ {
		ci := sampleClass(rnd, demandDist)
		it := catalog[ci]
		reqClasses = append(reqClasses, float64(ci))
		// The client wants a machine of roughly its class. The wide
		// utilization jitter makes sizes continuous across class
		// boundaries, so partial flexibility genuinely unlocks the next
		// machine class down (classes are 2× apart).
		util := 0.5 + 0.3*rnd.Float64()
		dur := base.HorizonSec/4 + rnd.Int63n(base.HorizonSec/4)
		window := dur + rnd.Int63n(base.HorizonSec/4)
		start := rnd.Int63n(base.HorizonSec - window + 1)
		m.Requests = append(m.Requests, &bidding.Request{
			ID:        bidding.OrderID(fmt.Sprintf("r%04d", i)),
			Client:    bidding.ParticipantID(fmt.Sprintf("client-%04d", i)),
			Submitted: int64(base.Providers + i),
			Resources: resource.Vector{
				resource.CPU:  it.VCPU * util,
				resource.RAM:  it.MemGiB * util,
				resource.Disk: it.StorageGiB * util * 0.2,
			},
			Start:       start,
			End:         start + window,
			Duration:    dur,
			Flexibility: cfg.Flexibility,
		})
	}
	assignValuations(m, base, rnd)

	similarity := 1 - histogramKLD(reqClasses, offerClasses, len(catalog))
	return m, similarity
}

func sampleClass(rnd *rand.Rand, dist []float64) int {
	u := rnd.Float64()
	var acc float64
	for i, p := range dist {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(dist) - 1
}

// histogram is a fixed-bin histogram over [lo, hi). Values outside the
// range clamp into the first/last bin, so mass is never silently lost.
type histogram struct {
	lo, hi float64
	counts []float64
}

// newHistogram creates a histogram with bins equal-width bins over
// [lo, hi). It panics on a non-positive bin count or an empty range —
// both are programming errors, not data errors.
func newHistogram(lo, hi float64, bins int) *histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("workload: non-positive bin count %d", bins))
	}
	if hi <= lo {
		panic(fmt.Sprintf("workload: empty histogram range [%g, %g)", lo, hi))
	}
	return &histogram{lo: lo, hi: hi, counts: make([]float64, bins)}
}

// add records one observation.
func (h *histogram) add(x float64) {
	n := len(h.counts)
	idx := int(math.Floor((x - h.lo) / (h.hi - h.lo) * float64(n)))
	h.counts[min(max(idx, 0), n-1)]++
}

// total returns the summed mass of all bins.
func (h *histogram) total() float64 {
	var t float64
	for _, c := range h.counts {
		t += c
	}
	return t
}

// probabilities returns the histogram normalized to a probability
// distribution. An empty histogram yields the uniform distribution so
// that divergence computations stay well-defined.
func (h *histogram) probabilities() []float64 {
	n := len(h.counts)
	p := make([]float64, n)
	total := h.total()
	if total <= 0 {
		for i := range p {
			p[i] = 1 / float64(n)
		}
		return p
	}
	for i, c := range h.counts {
		p[i] = c / total
	}
	return p
}

// klSmoothing is the additive (Laplace) smoothing mass applied per bin
// before computing KL divergence, keeping it finite when a bin of q is
// empty where p has mass.
const klSmoothing = 1e-6

// klDivergence computes D_KL(P‖Q) in nats between two probability vectors
// of equal length, applying additive smoothing to both. It panics on
// length mismatch (a programming error).
func klDivergence(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("workload: KL divergence over mismatched lengths %d and %d", len(p), len(q)))
	}
	var pt, qt float64
	for i := range p {
		pt += p[i] + klSmoothing
		qt += q[i] + klSmoothing
	}
	var d float64
	for i := range p {
		pi := (p[i] + klSmoothing) / pt
		qi := (q[i] + klSmoothing) / qt
		if pi > 0 {
			d += pi * math.Log(pi/qi)
		}
	}
	if d < 0 {
		// Smoothing can introduce a tiny negative residue.
		d = 0
	}
	return d
}

// histogramKLD builds equal-bin histograms of two samples over their
// common range and returns D_KL(sampleP‖sampleQ). This is the quantity
// behind the paper's similarity axis: similarity = 1 − KLD(R, O)
// "regarding resources" (Section V).
func histogramKLD(sampleP, sampleQ []float64, bins int) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range sampleP {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	for _, x := range sampleQ {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if !(hi > lo) { // empty or degenerate samples: identical distributions
		return 0
	}
	hp := newHistogram(lo, hi+1e-12, bins)
	hq := newHistogram(lo, hi+1e-12, bins)
	for _, x := range sampleP {
		hp.add(x)
	}
	for _, x := range sampleQ {
		hq.add(x)
	}
	return klDivergence(hp.probabilities(), hq.probabilities())
}
