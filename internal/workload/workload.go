// Package workload synthesizes the markets of the paper's evaluation
// (Section V): client requests shaped by the Google cluster-usage trace,
// provider offers drawn from the EC2 M5 catalog (2–16 vCPUs, 8–64 GB),
// valuations set to the cost of the best-matching offer times a uniform
// coefficient in [0.5, 2], and — for the flexibility experiments — supply
// and demand distributions with a controllable Kullback–Leibler
// divergence.
package workload

import (
	"fmt"
	"math/rand"

	"decloud/internal/bidding"
	"decloud/internal/match"
	"decloud/internal/resource"
	"decloud/internal/trace"
)

// Config describes one generated market (one block's worth of orders).
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// Requests is the number of client requests.
	Requests int
	// Providers is the number of single-offer providers. Zero defaults to
	// Requests/3 (rounded up, min 2): markets in the paper grow supply
	// with demand.
	Providers int
	// HorizonSec is the block's time horizon; offers span all of it.
	// Zero defaults to 6 hours.
	HorizonSec int64
	// ValuationLow/High bound the uniform valuation coefficient
	// (defaults 0.5 and 2.0, the paper's range).
	ValuationLow, ValuationHigh float64
	// Flexibility applies to every request (0 → inflexible, the paper's
	// first scenario).
	Flexibility float64
	// GeoRadius, when positive, scatters participants over the unit
	// square and gives every request a locality constraint
	// MaxDistance = GeoRadius — the edge-computing scenario where a
	// service must run near its users. Smaller radii fragment the market
	// into local neighborhoods.
	GeoRadius float64
	// RequestsPerClient groups consecutive requests under shared client
	// identities (default 1 = every request its own client). With more
	// than one, trade reduction's "exclude ALL orders of the price
	// setter's client" has real bite (Section IV-C).
	RequestsPerClient int
}

func (c Config) withDefaults() Config {
	if c.Providers == 0 {
		c.Providers = (c.Requests + 2) / 3
		if c.Providers < 2 {
			c.Providers = 2
		}
	}
	if c.HorizonSec == 0 {
		c.HorizonSec = 6 * 3600
	}
	if c.ValuationLow == 0 && c.ValuationHigh == 0 {
		c.ValuationLow, c.ValuationHigh = 0.5, 2.0
	}
	if c.RequestsPerClient <= 0 {
		c.RequestsPerClient = 1
	}
	return c
}

// Market is one block's worth of orders with truthful bids.
type Market struct {
	Requests []*bidding.Request
	Offers   []*bidding.Offer
}

// Generate builds a trace-driven market. Requests mirror Google-trace
// task shapes scaled onto the M5 reference machine; offers are M5
// instances with EC2 on-demand costs (±10% private-cost noise);
// valuations follow the paper's best-match-cost × U[low, high] rule.
func Generate(cfg Config) *Market {
	gen := trace.NewGenerator(cfg.withDefaults().Seed + 1)
	return GenerateFromTasks(cfg, gen.SampleN(cfg.Requests))
}

// GenerateFromTasks builds a market from concrete trace tasks — use this
// with trace.LoadTaskEventsCSV to run the evaluation on the REAL Google
// cluster-usage trace instead of the synthetic generator. cfg.Requests is
// ignored: one request is created per task. The supply side is the EC2
// M5 catalog.
func GenerateFromTasks(cfg Config, tasks []trace.Task) *Market {
	cfg.Requests = len(tasks)
	cfg = cfg.withDefaults()
	rnd := rand.New(rand.NewSource(cfg.Seed))
	catalog := trace.M5Catalog()
	reference := catalog[len(catalog)-1] // largest machine: normalization anchor

	m := &Market{}
	horizonHours := float64(cfg.HorizonSec) / 3600

	for j := 0; j < cfg.Providers; j++ {
		it := catalog[rnd.Intn(len(catalog))]
		// Private costs spread ±30% around the EC2 list price: edge
		// providers differ in electricity, amortization, and opportunity
		// cost. This dispersion is what trade reduction prices against.
		cost := it.CostFor(horizonHours) * (0.7 + 0.6*rnd.Float64())
		// Availability windows vary: devices come and go at the edge.
		// Every offer still covers at least half the horizon.
		start := rnd.Int63n(cfg.HorizonSec/4 + 1)
		end := cfg.HorizonSec - rnd.Int63n(cfg.HorizonSec/4+1)
		o := &bidding.Offer{
			ID:        bidding.OrderID(fmt.Sprintf("o%04d", j)),
			Provider:  bidding.ParticipantID(fmt.Sprintf("provider-%04d", j)),
			Submitted: int64(j),
			Resources: it.Resources(),
			Start:     start,
			End:       end,
			Bid:       cost * float64(end-start) / float64(cfg.HorizonSec),
			TrueCost:  cost * float64(end-start) / float64(cfg.HorizonSec),
		}
		if cfg.GeoRadius > 0 {
			o.Location = bidding.Location{X: rnd.Float64(), Y: rnd.Float64()}
		}
		m.Offers = append(m.Offers, o)
	}

	for i := 0; i < cfg.Requests; i++ {
		task := tasks[i]
		dur := task.DurationSec
		if dur > cfg.HorizonSec/2 {
			dur = cfg.HorizonSec / 2
		}
		// Tasks arrive throughout the horizon with 1–3× slack in their
		// execution window. Time diversity is what differentiates the
		// requests' best-offer sets and thus drives clustering.
		slack := 1 + 2*rnd.Float64()
		window := int64(float64(dur) * slack)
		if window > cfg.HorizonSec {
			window = cfg.HorizonSec
		}
		start := rnd.Int63n(cfg.HorizonSec - window + 1)
		r := &bidding.Request{
			ID:        bidding.OrderID(fmt.Sprintf("r%04d", i)),
			Client:    bidding.ParticipantID(fmt.Sprintf("client-%04d", i/cfg.RequestsPerClient)),
			Submitted: int64(cfg.Providers + i),
			Resources: resource.Vector{
				resource.CPU:  task.CPU * reference.VCPU,
				resource.RAM:  task.RAM * reference.MemGiB,
				resource.Disk: task.Disk * reference.StorageGiB,
			},
			Start:       start,
			End:         start + window,
			Duration:    dur,
			Flexibility: cfg.Flexibility,
		}
		if cfg.GeoRadius > 0 {
			r.Location = bidding.Location{X: rnd.Float64(), Y: rnd.Float64()}
			r.MaxDistance = cfg.GeoRadius
		}
		m.Requests = append(m.Requests, r)
	}
	assignValuations(m, cfg, rnd)
	return m
}

// assignValuations implements the paper's rule literally: "the valuation
// of each request is calculated as a cost of its best match offer
// multiplied by a random uniform coefficient in the range of [0.5, 2]".
// The base is the best-matching offer's full cost — clients anchor their
// willingness to pay at the market rate of the machine class they want.
// The best match is the first offer of the request's best-offer set in
// one match.Index over the market: RankOffers' first, by the same rank
// and tie rule, at the index's cost. The coefficients are drawn in
// m.Requests order, not the index's, so the market's bytes stay put.
func assignValuations(m *Market, cfg Config, rnd *rand.Rand) {
	ix := match.NewIndex(m.Requests, m.Offers, match.BlockScale(m.Requests, m.Offers))
	bestCost := make(map[*bidding.Request]float64, len(m.Requests))
	var s match.Scratch
	for ri, r := range ix.Requests() {
		if best := ix.BestOffers(ri, match.Config{QualityBand: 1, MaxBestOffers: 1}, &s); len(best) > 0 {
			bestCost[r] = best[0].Bid
		}
	}
	for _, r := range m.Requests {
		baseCost := bestCost[r]
		if baseCost <= 0 {
			// Unservable request: give it a nominal value so it remains a
			// well-formed (if hopeless) order.
			baseCost = 0.01
		}
		coeff := cfg.ValuationLow + rnd.Float64()*(cfg.ValuationHigh-cfg.ValuationLow)
		v := baseCost * coeff
		r.Bid = v
		r.TrueValue = v
	}
}
