package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"decloud/internal/bidding"
	"decloud/internal/geo"
	"decloud/internal/resource"
	"decloud/internal/stats"
	"decloud/internal/trace"
)

// StreamConfig describes an unbounded, epoch-structured order stream —
// the load-generation counterpart of Generate. Where Generate builds one
// dense batch market (and pays an O(requests × offers) valuation pass),
// a Stream emits orders one at a time with windows confined to epochs:
// every order of epoch e lives inside [e·EpochSec, (e+1)·EpochSec), so a
// block holding many epochs stays cheap to clear — the match index
// rejects cross-epoch pairs on the first availability-window compare —
// and million-order rounds become tractable on one core.
type StreamConfig struct {
	// Seed makes the whole stream deterministic. Every virtual client
	// draws from its own sub-stream derived from (Seed, client index), so
	// client c's j-th order is the same no matter how emissions from
	// different clients interleave.
	Seed int64
	// Clients is the number of virtual clients emission round-robins over
	// (default 8). Each client emits both requests and offers.
	Clients int
	// OfferFraction is the fraction of each epoch's emissions that are
	// offers (default 0.25, the paper's 1:3 supply:demand shape). Offers
	// lead each epoch so the supply a request needs is already in the
	// block when the request arrives.
	OfferFraction float64
	// EpochOrders is the number of orders per epoch (default 512).
	EpochOrders int
	// EpochSec is the epoch length in seconds (default 3600). Offers span
	// their whole epoch; request windows nest inside it.
	EpochSec int64
	// Flexibility applies to every request (0 = inflexible).
	Flexibility float64
	// ValuationLow/High bound the uniform valuation coefficient
	// (defaults 0.5 and 2.0, the paper's range).
	ValuationLow, ValuationHigh float64
	// IDPrefix namespaces order IDs (default "s"): many independent
	// streams can feed one market without ID collisions.
	IDPrefix string
	// GeoRadius, when positive, scatters the virtual clients over the
	// unit square — each client draws one fixed home location from its
	// sub-stream — and stamps every emitted order with its client's
	// location; requests additionally get MaxDistance = GeoRadius. This
	// is the location the metro federation homes orders by, so a geo
	// stream feeds a federated market the way Generate's GeoRadius feeds
	// a batch one.
	GeoRadius float64
	// GeoMetros, when ≥ 2 (and GeoRadius > 0), steers the client homes
	// toward metro exchanges: each client draws a target metro and its
	// home location is resampled until metro.Home agrees, so the stream's
	// arrival mix across exchanges is controlled rather than incidental.
	GeoMetros int
	// GeoMix weights the per-metro client assignment (len GeoMetros;
	// nil/short = uniform). Weights need not sum to 1.
	GeoMix []float64
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.OfferFraction <= 0 || c.OfferFraction >= 1 {
		c.OfferFraction = 0.25
	}
	if c.EpochOrders <= 0 {
		c.EpochOrders = 512
	}
	if c.EpochSec <= 0 {
		c.EpochSec = 3600
	}
	if c.ValuationLow == 0 && c.ValuationHigh == 0 {
		c.ValuationLow, c.ValuationHigh = 0.5, 2.0
	}
	if c.IDPrefix == "" {
		c.IDPrefix = "s"
	}
	return c
}

// StreamOrder is one emitted order: exactly one of Request and Offer is
// non-nil. Client is the index of the virtual client that emitted it.
type StreamOrder struct {
	Client  int
	Request *bidding.Request
	Offer   *bidding.Offer
}

// ID returns the order's namespaced identifier.
func (so StreamOrder) ID() bidding.OrderID {
	if so.Request != nil {
		return so.Request.ID
	}
	return so.Offer.ID
}

// Stream emits a deterministic, epoch-structured order sequence. Not
// safe for concurrent use; wrap in a mutex or shard one stream per
// goroutine via distinct StreamConfig seeds.
type Stream struct {
	cfg   StreamConfig
	gens  []*trace.Generator
	rnds  []*rand.Rand
	locs  []bidding.Location // per-client home (GeoRadius > 0 only)
	local []int              // per-client emission count
	seq   int                // global round-robin position
}

// NewStream builds a stream from the config.
func NewStream(cfg StreamConfig) *Stream {
	cfg = cfg.withDefaults()
	s := &Stream{
		cfg:   cfg,
		gens:  make([]*trace.Generator, cfg.Clients),
		rnds:  make([]*rand.Rand, cfg.Clients),
		local: make([]int, cfg.Clients),
	}
	var seedBytes [8]byte
	binary.BigEndian.PutUint64(seedBytes[:], uint64(cfg.Seed))
	if cfg.GeoRadius > 0 {
		s.locs = make([]bidding.Location, cfg.Clients)
	}
	for c := 0; c < cfg.Clients; c++ {
		sub := stats.SubRand(seedBytes[:], fmt.Sprintf("workload/stream/client/%d", c))
		s.gens[c] = trace.NewGenerator(sub.Int63())
		s.rnds[c] = sub
		if s.locs != nil {
			s.locs[c] = bidding.Location{X: sub.Float64(), Y: sub.Float64()}
			if cfg.GeoMetros > 1 {
				target := pickMetro(cfg, sub.Float64())
				// Rejection-sample the unit square until the home metro
				// matches. Expected tries ≈ GeoMetros; a fixed cap keeps a
				// pathological cell layout from spinning (the last draw
				// then stands, slightly diluting the mix, never blocking).
				for try := 0; try < 64*cfg.GeoMetros; try++ {
					if geo.Home(s.locs[c], geo.DefaultCellSize, cfg.GeoMetros) == target {
						break
					}
					s.locs[c] = bidding.Location{X: sub.Float64(), Y: sub.Float64()}
				}
			}
		}
	}
	return s
}

// Next emits the next order, round-robining over the virtual clients.
func (s *Stream) Next() StreamOrder {
	c := s.seq % s.cfg.Clients
	s.seq++
	return s.emit(c)
}

// Emit returns the next n round-robin orders.
func (s *Stream) Emit(n int) []StreamOrder {
	out := make([]StreamOrder, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.Next())
	}
	return out
}

// emit draws client c's next order. The epoch derives from the client's
// own emission count so that per-client sequences are interleaving-
// independent; with strict round-robin the global position j·C+c walks
// epochs in emission order.
func (s *Stream) emit(c int) StreamOrder {
	cfg := s.cfg
	j := s.local[c]
	s.local[c]++
	global := int64(j*cfg.Clients + c)
	epoch := global / int64(cfg.EpochOrders)
	within := int(global % int64(cfg.EpochOrders))
	epochStart := epoch * cfg.EpochSec
	epochEnd := epochStart + cfg.EpochSec

	rnd := s.rnds[c]
	offerLead := int(cfg.OfferFraction * float64(cfg.EpochOrders))
	if offerLead < 1 {
		offerLead = 1
	}
	catalog := trace.M5Catalog()
	epochHours := float64(cfg.EpochSec) / 3600

	if within < offerLead {
		// Offers lead the epoch and span all of it; private costs spread
		// ±30% around the EC2 list price as in Generate.
		it := catalog[rnd.Intn(len(catalog))]
		cost := it.CostFor(epochHours) * (0.7 + 0.6*rnd.Float64())
		o := &bidding.Offer{
			ID:        bidding.OrderID(fmt.Sprintf("%s-c%02d-o%07d", cfg.IDPrefix, c, j)),
			Provider:  bidding.ParticipantID(fmt.Sprintf("%s-c%02d", cfg.IDPrefix, c)),
			Submitted: global,
			Resources: it.Resources(),
			Start:     epochStart,
			End:       epochEnd,
			Bid:       cost,
			TrueCost:  cost,
		}
		if s.locs != nil {
			o.Location = s.locs[c]
		}
		return StreamOrder{Client: c, Offer: o}
	}

	// Requests: Google-trace task shapes scaled onto the M5 reference
	// anchor, with an execution window nested inside the epoch so every
	// in-epoch offer passes the availability constraints.
	task := s.gens[c].Sample()
	reference := catalog[len(catalog)-1]
	dur := task.DurationSec
	if dur > cfg.EpochSec/2 {
		dur = cfg.EpochSec / 2
	}
	if dur < 1 {
		dur = 1
	}
	slack := 1 + 2*rnd.Float64()
	window := int64(float64(dur) * slack)
	if window > cfg.EpochSec {
		window = cfg.EpochSec
	}
	start := epochStart + rnd.Int63n(cfg.EpochSec-window+1)
	r := &bidding.Request{
		ID:        bidding.OrderID(fmt.Sprintf("%s-c%02d-r%07d", cfg.IDPrefix, c, j)),
		Client:    bidding.ParticipantID(fmt.Sprintf("%s-c%02d", cfg.IDPrefix, c)),
		Submitted: global,
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
	if s.locs != nil {
		r.Location = s.locs[c]
		r.MaxDistance = cfg.GeoRadius
	}
	// Valuation: cost of the smallest catalog machine that covers the
	// request, times the paper's uniform coefficient. Anchoring on the
	// catalog instead of ranking live offers keeps emission O(1) per
	// order — the stream never scans the market it feeds.
	base := catalog[len(catalog)-1].CostFor(epochHours)
	for _, it := range catalog {
		if it.VCPU >= r.Resources[resource.CPU] && it.MemGiB >= r.Resources[resource.RAM] {
			base = it.CostFor(epochHours)
			break
		}
	}
	coeff := cfg.ValuationLow + rnd.Float64()*(cfg.ValuationHigh-cfg.ValuationLow)
	r.Bid = base * coeff
	r.TrueValue = r.Bid
	return StreamOrder{Client: c, Request: r}
}

// pickMetro maps one uniform draw onto the GeoMix weight vector
// (missing/non-positive entries fall back to uniform weighting).
func pickMetro(cfg StreamConfig, u float64) int {
	weights := make([]float64, cfg.GeoMetros)
	var total float64
	for m := range weights {
		w := 1.0
		if m < len(cfg.GeoMix) && cfg.GeoMix[m] > 0 {
			w = cfg.GeoMix[m]
		} else if len(cfg.GeoMix) > m {
			w = 0
		}
		weights[m] = w
		total += w
	}
	if total <= 0 {
		return 0
	}
	acc := 0.0
	for m, w := range weights {
		acc += w / total
		if u < acc {
			return m
		}
	}
	return cfg.GeoMetros - 1
}
