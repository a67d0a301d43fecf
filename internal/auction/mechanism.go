package auction

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"decloud/internal/bidding"
	"decloud/internal/cluster"
	"decloud/internal/match"
	"decloud/internal/miniauction"
	"decloud/internal/obs"
	"decloud/internal/par"
	"decloud/internal/resource"
	"decloud/internal/stats"
)

// Config tunes the mechanism.
type Config struct {
	// Match configures the quality-of-match heuristic and best-offer set.
	Match match.Config
	// Critical overrides the base critical resource set K_CR
	// (nil → resource.DefaultCritical()).
	Critical map[resource.Kind]bool
	// Evidence seeds the verifiable randomized exclusion. In ledger mode
	// this is the block's proof-of-work; every verifier derives the same
	// lottery from it. Nil falls back to a fixed label (still
	// deterministic, but not block-bound).
	Evidence []byte
	// Reputation, when set, enforces the provider-side client-reputation
	// thresholds of Section III-B: a request may only be placed on an
	// offer if its client's reputation meets the offer's MinReputation.
	// Reputation scores are public ledger state, independent of bids, so
	// the gate does not affect strategyproofness.
	Reputation ReputationSource
	// StrictReduction applies trade reduction per CLUSTER instead of per
	// mini-auction: every cluster's marginal client is excluded from
	// that cluster, not just the auction-wide price setter. This is the
	// conservative reading of the paper's Algorithm 4 and loses
	// considerably more welfare (one client per cluster instead of one
	// per mini-auction) — kept as an ablation of the mini-auction
	// grouping's benefit (Section IV-C: "to minimize the adverse effect
	// of trade reduction ... we group clusters in mini-auctions").
	StrictReduction bool
	// Obs, when set, records mechanism observability: per-phase wall
	// times, structure counts, and welfare per block. It is purely
	// observational — the Outcome is byte-identical with Obs nil or set
	// (the obs determinism guard enforces this), because nothing in the
	// pipeline ever reads a metric back.
	Obs *obs.MechanismMetrics
	// Workers bounds the worker pool that parallelizes the mechanism's
	// independent stages: per-request best-offer scoring, per-cluster
	// pre-passes, and the execution of mini-auctions whose member
	// clusters share no orders (see parallel.go). 0 or 1 runs fully
	// sequentially; DefaultConfig sets runtime.GOMAXPROCS(0). Every
	// worker count produces a byte-identical Outcome — the blockchain
	// verification protocol re-executes allocations on machines with
	// arbitrary core counts, so this invariant is load-bearing and is
	// enforced by the internal/auction/paralleltest harness.
	Workers int
	// Incremental routes block execution through the long-lived order
	// book (internal/book) instead of rebuilding the match index and
	// clusters from scratch every round: unmatched orders carry across
	// epochs, and only book state touched since the previous clear is
	// re-derived. The flag is consensus-critical — every miner of a
	// network must agree on it, because carried orders make successive
	// allocations depend on prior blocks. The mechanism itself
	// (Run/RunPrepared) ignores the flag; it is read by the round loops
	// in miner, p2p, sim, and devnet.
	Incremental bool
}

// ReputationSource exposes participant reputations to the mechanism
// (implemented by reputation.Store).
type ReputationSource interface {
	Score(id bidding.ParticipantID) float64
}

// DefaultConfig returns the tuning used in the evaluation. Workers
// defaults to the machine's core count; the outcome does not depend on
// it (paralleltest enforces byte-equality across worker counts).
func DefaultConfig() Config {
	return Config{Match: match.DefaultConfig(), Workers: par.Default()}
}

// effectiveWorkers normalizes Config.Workers: anything below 2 means
// sequential execution.
func effectiveWorkers(cfg Config) int {
	if cfg.Workers < 1 {
		return 1
	}
	return cfg.Workers
}

// econPass is the economics pass of a run over a batch of clusters, in
// their order; keep asks for rows that outlive the block index. It also
// returns the number of ν evaluations it made.
type econPass func(clusters []*cluster.Cluster, keep bool) ([]*EconCluster, int)

// indexedEcon is the production pass, one table per scale over the
// block index's dense rows.
func indexedEcon(cfg Config, ix *match.Index) econPass {
	return func(clusters []*cluster.Cluster, keep bool) ([]*EconCluster, int) {
		return economicsByScale(clusters, cfg.Critical, ix, keep, effectiveWorkers(cfg))
	}
}

// pairGate builds the request↔offer admissibility filter from the
// reputation source (nil when no gating applies).
func pairGate(cfg Config) func(EconRequest, EconOffer) bool {
	if cfg.Reputation == nil {
		return nil
	}
	rep := cfg.Reputation
	return func(er EconRequest, eo EconOffer) bool {
		if eo.Offer.MinReputation <= 0 {
			return true
		}
		return rep.Score(er.Request.Client) >= eo.Offer.MinReputation
	}
}

const eps = 1e-9

// clusterStats caches the per-cluster marginal economics computed by the
// pre-pass, which stay fixed for the rest of the block (Algorithm 1
// determines v̂_z and ĉ_{z'+1} before mini-auctions are formed).
type clusterStats struct {
	ec *EconCluster
	// Marginal economics from the greedy pre-pass.
	vHatZ float64 // v̂_z: lowest allocated normalized valuation
	cHatZ float64 // ĉ_{z'}: highest allocated normalized cost
	// zClient identifies the potential request-side price setter.
	zClient bidding.ParticipantID
	// used marks offers that received an allocation in this cluster's
	// pre-pass; unused lists the rest in ĉ-ascending order. The ĉ_{z'+1}
	// price setter is resolved at the mini-auction level: it must be an
	// offer unused in EVERY member cluster (an offer trading in one
	// cluster but idle in another is not a marginal seller).
	used    map[bidding.OrderID]bool
	unused  []EconOffer
	welfare float64 // bid-based welfare of the pre-pass allocation
	active  bool
}

// prePass greedily allocates the cluster in isolation to locate the
// break-even indices z and z′ and estimate the cluster's welfare, per
// Algorithm 1's "allocate r, o ∈ cluster greedily; determine v̂_z,
// ĉ_{z'+1}". It packs as a trial on the worker's packer and reverts it,
// so that capacity is fresh for every cluster.
func prePass(ec *EconCluster, pairOK func(EconRequest, EconOffer) bool, pk *packer) clusterStats {
	st := clusterStats{ec: ec, used: make(map[bidding.OrderID]bool)}
	pk.tr.begin()
	ec.pack(pk, nil, nil, nil, pairOK, nil, nil)
	pk.tr.end(true)
	asg := pk.asg
	if len(asg) == 0 {
		return st
	}
	st.active = true
	st.vHatZ = math.Inf(1)
	for _, a := range asg {
		if a.Req.VHat < st.vHatZ {
			st.vHatZ = a.Req.VHat
			st.zClient = a.Req.Request.Client
		}
		if a.Off.CHat > st.cHatZ {
			st.cHatZ = a.Off.CHat
		}
		st.used[a.Off.Offer.ID] = true
		st.welfare += a.Req.Request.Bid - float64(a.frac*a.Off.Offer.Bid)
	}
	for _, eo := range ec.Offers {
		if !st.used[eo.Offer.ID] {
			st.unused = append(st.unused, eo) // ec.Offers is ĉ-ascending
		}
	}
	return st
}

func newOutcome() *Outcome {
	return &Outcome{
		Payments: make(map[bidding.OrderID]float64),
		Revenues: make(map[bidding.OrderID]float64),
	}
}

// Run executes DeCloud's DSIC double auction over one block of orders.
// Invalid orders are rejected (listed in the outcome), never fatal: a
// miner must process whatever the block contains.
//
// With cfg.Workers > 1 the three embarrassingly parallel stages —
// best-offer scoring, cluster pre-passes, and order-disjoint
// mini-auctions — fan out across a bounded worker pool; results are
// merged in canonical order so the Outcome is byte-identical to the
// sequential execution (see parallel.go for the argument).
func Run(requests []*bidding.Request, offers []*bidding.Offer, cfg Config) *Outcome {
	pt := startPhases(cfg.Obs)
	out := newOutcome()
	reqs, offs := screen(requests, offers, out)
	workers := effectiveWorkers(cfg)

	// One index serves the whole block: clustering scans it for best
	// offers, and the economics pre-pass reads its dense rows and kind
	// masks (economicsByScale).
	ix := match.NewIndex(reqs, offs, match.BlockScale(reqs, offs))
	pt.lapIndex()
	clusters := cluster.BuildIndex(ix, cfg.Match, workers)
	pt.lapCluster()
	runClustered(out, ix, clusters, cfg, &pt, nil, indexedEcon(cfg, ix))
	return out
}

// RunReference is Run through the reference implementations: the
// brute-force scan-and-sort matcher (match.BestOffers) and the
// map-walking ComputeEconomics: no best-offer set or economics is read
// off the block index, which fixes the request order and lends the rows
// the capacity kernel packs over. It is the oracle the indexed engine
// is compared against (paralleltest.CheckIndexedVsNaive); nothing
// outside tests calls it.
func RunReference(requests []*bidding.Request, offers []*bidding.Offer, cfg Config) *Outcome {
	out := newOutcome()
	reqs, offs := screen(requests, offers, out)
	ix := match.NewIndex(reqs, offs, match.BlockScale(reqs, offs))
	b := cluster.NewBuilder()
	for _, r := range ix.Requests() {
		b.Update(r, match.BestOffers(r, ix.Offers(), ix.Scale(), cfg.Match))
	}
	pt := startPhases(cfg.Obs)
	runClustered(out, ix, b.Clusters(), cfg, &pt, nil, func(clusters []*cluster.Cluster, _ bool) ([]*EconCluster, int) {
		ecs, nu := make([]*EconCluster, len(clusters)), 0
		for i, cl := range clusters {
			ecs[i] = ComputeEconomics(cl, cfg.Critical)
			ecs[i].bindRows(ix)
			nu += len(cl.Requests) + len(cl.Offers)
		}
		return ecs, nu
	})
	return out
}

// phaseTimer threads the mechanism's observability through Run: lap
// methods record per-phase wall times, finish records the block's
// structure counts. A zero-value timer (Obs nil) is fully inert — no
// clock reads, no atomics — so the uninstrumented path costs one pointer
// compare per call site.
type phaseTimer struct {
	m     *obs.MechanismMetrics
	start time.Time
	last  time.Time
}

func startPhases(m *obs.MechanismMetrics) phaseTimer {
	if m == nil {
		return phaseTimer{}
	}
	now := time.Now()
	return phaseTimer{m: m, start: now, last: now}
}

func (pt *phaseTimer) lap(h *obs.Histogram) {
	now := time.Now()
	h.Observe(now.Sub(pt.last).Seconds())
	pt.last = now
}

func (pt *phaseTimer) lapIndex() {
	if pt.m != nil {
		pt.lap(pt.m.IndexSeconds)
	}
}

func (pt *phaseTimer) lapCluster() {
	if pt.m != nil {
		pt.lap(pt.m.ClusterSeconds)
	}
}

func (pt *phaseTimer) lapPrepass() {
	if pt.m != nil {
		pt.lap(pt.m.PrepassSeconds)
	}
}

func (pt *phaseTimer) lapAuctions() {
	if pt.m != nil {
		pt.lap(pt.m.AuctionsSeconds)
	}
}

func (pt *phaseTimer) finish(out *Outcome, ix *match.Index, clusters []*cluster.Cluster, nu int) {
	m := pt.m
	if m == nil {
		return
	}
	m.Blocks.Inc()
	m.RunSeconds.Observe(time.Since(pt.start).Seconds())
	m.TopKScans.Add(ix.Scans())
	m.Clusters.Add(int64(out.Clusters))
	members := 0
	for _, cl := range clusters {
		members += len(cl.Requests)
	}
	m.Memberships.Add(int64(members))
	m.NuEvaluations.Add(int64(nu))
	m.MiniAuctions.Add(int64(out.MiniAuctions))
	m.Matches.Add(int64(len(out.Matches)))
	m.ReducedRequests.Add(int64(len(out.ReducedRequests)))
	m.ReducedOffers.Add(int64(len(out.ReducedOffers)))
	m.LotteryDropped.Add(int64(len(out.LotteryDropped)))
	m.RejectedOrders.Add(int64(len(out.RejectedRequests) + len(out.RejectedOffers)))
	w := out.BidWelfare()
	m.BidWelfareSum.Add(w)
	m.LastBidWelfare.Set(w)
}

// blockState is the mutable allocation state threaded through the
// mini-auction execution loop: shared offer capacity plus the taken /
// reduction / lottery bookkeeping. Sequential mode threads ONE state
// through every mini-auction; parallel mode gives each order-disjoint
// component of mini-auctions its own state and merges afterwards —
// equivalent because every set is keyed by order and components share
// no orders. The request-side sets are indexed by the request's
// position in the clear's index (dense.id), so the components share
// them: they write disjoint elements.
type blockState struct {
	kinds                      []resource.Kind // the live index's kind table, naming grants
	pk                         *packer
	taken, reducedReq, lottery []bool
	reducedOff                 map[bidding.OrderID]bool
}

func newBlockState(kinds []resource.Kind, requests int, pk *packer) *blockState {
	sets, n := make([]bool, 3*requests), requests
	return &blockState{
		kinds:      kinds,
		pk:         pk,
		taken:      sets[:n:n],
		reducedReq: sets[n : 2*n : 2*n],
		lottery:    sets[2*n:],
		reducedOff: make(map[bidding.OrderID]bool),
	}
}

// auctionPrice resolves the pooled mini-auction's clearing price per
// Eq. 20: p = min(v̂_z, ĉ_{z'+1}), where v̂_z is the lowest marginal
// valuation across member clusters and ĉ_{z'+1} is the cheapest unused
// offer ABOVE every trading offer of the pool. The "above" filter is
// SBBA's structure: the price-setting seller is the first one outside
// the trade. A cluster-local unused offer cheaper than other clusters'
// trading offers is an artifact of cluster-local capacity, not the
// marginal seller — letting it set the price would push p below trading
// sellers' costs and collapse the pool. ok is false when the pool has
// no finite price (nothing trades).
func auctionPrice(auc miniauction.Auction, all []clusterStats) (p, maxUsedCost float64, usedAnywhere map[bidding.OrderID]bool, ok bool) {
	minVZ := math.Inf(1)
	usedAnywhere = make(map[bidding.OrderID]bool)
	for _, ci := range auc.Clusters {
		st := all[ci]
		if st.vHatZ < minVZ {
			minVZ = st.vHatZ
		}
		if st.cHatZ > maxUsedCost {
			maxUsedCost = st.cHatZ
		}
		for id := range st.used {
			usedAnywhere[id] = true
		}
	}
	// The ĉ_{z'+1} candidate: the cheapest offer that trades in NO
	// member cluster and sits at or above the pool's trading costs —
	// the genuine marginal seller of the pooled auction.
	nextCost := math.Inf(1)
	for _, ci := range auc.Clusters {
		for _, eo := range all[ci].unused {
			if usedAnywhere[eo.Offer.ID] || eo.CHat < maxUsedCost-eps {
				continue
			}
			if eo.CHat < nextCost {
				nextCost = eo.CHat
			}
			break // unused is ĉ-ascending: later entries are pricier
		}
	}
	p = math.Min(minVZ, nextCost)
	return p, maxUsedCost, usedAnywhere, !math.IsInf(p, 1)
}

// runMiniAuction executes one mini-auction — pricing, trade reduction,
// randomized exclusion, and capacity allocation — against the given
// block state, appending its trades to ms in deterministic order.
// ai must be the auction's index in the block-wide auction list: it
// keys the evidence-derived lotteries, so it must not depend on how
// auctions are scheduled across workers.
func runMiniAuction(ai int, auc miniauction.Auction, all []clusterStats, cfg Config, pairOK func(EconRequest, EconOffer) bool, evidence []byte, st *blockState, ms []Match) []Match {
	p, maxUsedCost, usedAnywhere, ok := auctionPrice(auc, all)
	if !ok {
		return ms
	}
	// Every participant whose marginal order set the price is
	// excluded — on ties, both sides (a price setter who kept
	// trading could profitably distort the price). Only genuine
	// price-setter candidates count.
	exclClients := make(map[bidding.ParticipantID]bool)
	exclProviders := make(map[bidding.ParticipantID]bool)
	for _, ci := range auc.Clusters {
		cs := all[ci]
		if cs.active && cs.vHatZ <= p+eps {
			exclClients[cs.zClient] = true
		}
		for _, eo := range cs.unused {
			if usedAnywhere[eo.Offer.ID] || eo.CHat < maxUsedCost-eps {
				continue
			}
			if eo.CHat <= p+eps {
				exclProviders[eo.Offer.Provider] = true
			}
		}
	}

	var cs clusterStats // the cluster being packed, which reqOK reads
	reqOK := func(er EconRequest) bool {
		if er.VHat < p-eps || exclClients[er.Request.Client] {
			return false
		}
		if cfg.StrictReduction && cs.active && er.Request.Client == cs.zClient {
			return false
		}
		return true
	}
	offOK := func(eo EconOffer) bool {
		return eo.CHat <= p+eps && !exclProviders[eo.Offer.Provider]
	}
	for _, ci := range auc.Clusters {
		cs = all[ci]
		ec := cs.ec

		// Nested clusters often hold only requests that traded already.
		if !slices.ContainsFunc(ec.Requests, func(er EconRequest) bool {
			return !st.taken[er.d.id] && reqOK(er)
		}) || !slices.ContainsFunc(ec.Offers, offOK) {
			continue
		}

		// Offers are tried in a BID-INDEPENDENT order — if which
		// offers get to serve depended on reported costs, an idle
		// provider could underbid its way into the allocation
		// (Section IV-D). With no excess demand we order by machine
		// size ascending (hardware is system-reported, not strategic)
		// so small requests don't fragment the big machines.
		label := fmt.Sprintf("auction:%d/cluster:%s", ai, ec.Cluster.Key())
		offOrder := sizeOrder(evidence, label+"/offers", ec.Offers)

		// Trial pack, committed in place: if every eligible request
		// fits, the deterministic v̂-descending request order is fine
		// and the trial stands. Otherwise the trial is undone — the
		// capacity model restores every value it overwrote, and the
		// trial's requests leave the taken set — and Algorithm 4
		// applies: "randomize the allocation of cluster" — BOTH which
		// requests trade and where they land are drawn from the
		// evidence-keyed lottery, so no marginal participant can bid
		// its way into the capacity-constrained allocation. This
		// randomization is the welfare price of truthfulness the paper
		// measures in Figures 5a–5b.
		pk := st.pk
		pk.tr.begin()
		if eligible := ec.pack(pk, st.taken, reqOK, offOK, pairOK, nil, offOrder); len(pk.asg) == eligible {
			pk.tr.end(false)
		} else {
			pk.tr.end(true)
			for _, a := range pk.asg {
				st.taken[a.Req.d.id] = false
			}
			// The request lottery draws over the eligible requests
			// only: each rank comes from the ID's own key, so leaving
			// the others out moves no eligible request's place.
			var elig []int
			var reqIDs []string
			for i, er := range ec.Requests {
				if !st.taken[er.d.id] && reqOK(er) {
					elig = append(elig, i)
					reqIDs = append(reqIDs, string(er.Request.ID))
				}
			}
			reqOrder := stats.KeyedOrder(evidence, label+"/requests", reqIDs)
			for j, k := range reqOrder {
				reqOrder[j] = elig[k]
			}
			offIDs := make([]string, len(ec.Offers))
			for i, eo := range ec.Offers {
				offIDs[i] = string(eo.Offer.ID)
			}
			randOff := stats.KeyedOrder(evidence, label+"/offers-lottery", offIDs)
			ec.pack(pk, st.taken, reqOK, offOK, pairOK, reqOrder, randOff)
			for _, i := range elig {
				if id := ec.Requests[i].d.id; !st.taken[id] {
					st.lottery[id] = true
				}
			}
		}
		for _, a := range pk.asg {
			ms = appendMatch(ms, st.kinds, ec, a, p)
		}
	}

	// Bookkeeping of reduced trades: the price setters' competitive
	// orders that were barred from this auction.
	for _, ci := range auc.Clusters {
		cs := all[ci]
		for _, er := range cs.ec.Requests {
			excluded := exclClients[er.Request.Client] ||
				(cfg.StrictReduction && cs.active && er.Request.Client == cs.zClient)
			if excluded && er.VHat >= p-eps && !st.taken[er.d.id] {
				st.reducedReq[er.d.id] = true
			}
		}
		for _, eo := range cs.ec.Offers {
			if exclProviders[eo.Offer.Provider] && eo.CHat <= p+eps {
				st.reducedOff[eo.Offer.ID] = true
			}
		}
	}
	return ms
}

// RunGreedy is the paper's non-truthful benchmark: the same clustering
// and greedy allocation pipeline, but without trade reduction or
// randomization — every profitable trade executes, yielding "the best
// possible welfare under greedy allocation" (Section V). Payments are not
// meaningful for the benchmark (it is not strategyproof) and are left 0.
func RunGreedy(requests []*bidding.Request, offers []*bidding.Offer, cfg Config) *Outcome {
	out := newOutcome()
	reqs, offs := screen(requests, offers, out)
	workers := effectiveWorkers(cfg)

	ix := match.NewIndex(reqs, offs, match.BlockScale(reqs, offs))
	clusters := cluster.BuildIndex(ix, cfg.Match, workers)
	out.Clusters = len(clusters)

	var ranked []clusterStats
	all, _ := prePassAll(clusters, ix, cfg, indexedEcon(cfg, ix), nil)
	for _, st := range all {
		if st.active {
			ranked = append(ranked, st)
		}
	}
	slices.SortFunc(ranked, func(a, b clusterStats) int {
		switch {
		case a.welfare > b.welfare:
			return -1
		case a.welfare < b.welfare:
			return 1
		}
		// Cluster keys are unique, so ties resolve identically under
		// any sort algorithm.
		return strings.Compare(a.ec.Cluster.Key(), b.ec.Cluster.Key())
	})

	pk, pairOK := newPacker(), pairGate(cfg)
	taken := make([]bool, len(ix.Requests()))
	for _, rc := range ranked {
		rc.ec.pack(pk, taken, nil, nil, pairOK, nil, nil)
		for _, a := range pk.asg {
			out.Matches = appendMatch(out.Matches, ix.Kinds(), rc.ec, a, 0)
		}
	}
	settle(out)
	return out
}

// screen validates orders, returning the accepted ones and recording
// rejections in the outcome. An order ID names one order per side of a
// block: the first order carrying an ID is screened, every later one is
// rejected, since the index sort, the payment maps and the prepass cache
// all key on it.
func screen(requests []*bidding.Request, offers []*bidding.Offer, out *Outcome) ([]*bidding.Request, []*bidding.Offer) {
	seen := make(map[bidding.OrderID]bool, len(requests))
	repeat := func(id bidding.OrderID) bool {
		dup := seen[id]
		seen[id] = true
		return dup
	}
	reqs := make([]*bidding.Request, 0, len(requests))
	for _, r := range requests {
		if repeat(r.ID) || r.Validate() != nil {
			out.RejectedRequests = append(out.RejectedRequests, r.ID)
			continue
		}
		reqs = append(reqs, r)
	}
	clear(seen)
	offs := make([]*bidding.Offer, 0, len(offers))
	for _, o := range offers {
		if repeat(o.ID) || o.Validate() != nil {
			out.RejectedOffers = append(out.RejectedOffers, o.ID)
			continue
		}
		offs = append(offs, o)
	}
	return reqs, offs
}

// appendMatch appends one trade to ms; kinds is the live index's kind
// table, naming the grant's kinds. Payments and Revenues are NOT
// written here: they are struct-of-arrays state derived from Matches,
// built once at settle time with exact capacity instead of growing two
// maps trade by trade.
func appendMatch(ms []Match, kinds []resource.Kind, ec *EconCluster, a Assignment, price float64) []Match {
	r, o := a.Req.Request, a.Off.Offer
	granted := grantVector(kinds, a.Req, a.g)
	var nu float64
	if ec.rows != nil { // NuOf from the dense grant, without the maps
		nu = ec.rows.nu(a.Req.d.mask, a.g)
	} else {
		nu = ec.NuOf(granted)
	}
	pay := nu * price * float64(r.Duration)
	return append(ms, Match{
		Request:   r,
		Offer:     o,
		Granted:   granted,
		Fraction:  a.frac,
		Nu:        nu,
		UnitPrice: price,
		Payment:   pay,
	})
}

// settle materializes the Payments/Revenues maps from the recorded
// matches. Iteration follows Matches emission order — the order the
// per-trade map writes used to happen in — so the Revenues float
// accumulation is bit-identical to the incremental construction.
func settle(out *Outcome) {
	out.Payments = make(map[bidding.OrderID]float64, len(out.Matches))
	out.Revenues = make(map[bidding.OrderID]float64, len(out.Matches))
	for i := range out.Matches {
		m := &out.Matches[i]
		out.Payments[m.Request.ID] = m.Payment
		out.Revenues[m.Offer.ID] += m.Payment
	}
}

// sizeOrder returns offer indexes sorted by resource magnitude ascending,
// with an evidence-keyed hash breaking ties — fully independent of
// reported costs.
func sizeOrder(evidence []byte, label string, offers []EconOffer) []int {
	ids := make([]string, len(offers))
	for i, eo := range offers {
		ids[i] = string(eo.Offer.ID)
	}
	hashRank := make([]int, len(offers))
	for rank, idx := range stats.KeyedOrder(evidence, label, ids) {
		hashRank[idx] = rank
	}
	// ‖ρ_o‖₂ off the dense row: ascending kind bits are the sorted
	// order Norm2 sums in, so the norm is bit-identical.
	norm, order := make([]float64, len(offers)), make([]int, len(offers))
	for i, eo := range offers {
		var sum float64
		eachKind(eo.d.mask, func(k int) { sum += float64(eo.d.row[k] * eo.d.row[k]) })
		norm[i], order[i] = math.Sqrt(sum), i
	}
	slices.SortFunc(order, func(a, b int) int {
		na, nb := norm[a], norm[b]
		switch {
		case na < nb:
			return -1
		case na > nb:
			return 1
		}
		// hashRank is a permutation, so this comparator is a total
		// order: the sorted result is unique no matter the algorithm.
		return hashRank[a] - hashRank[b]
	})
	return order
}

// finalize drops reduction/lottery records for orders that did trade in
// a later mini-auction, emits them deterministically sorted, and settles
// the payment/revenue maps from the recorded matches. requests are the
// index's, in position order.
func finalize(out *Outcome, requests []*bidding.Request, st *blockState) {
	for id, r := range requests {
		if st.reducedReq[id] && !st.taken[id] {
			out.ReducedRequests = append(out.ReducedRequests, r.ID)
		}
		if st.lottery[id] && !st.taken[id] {
			out.LotteryDropped = append(out.LotteryDropped, r.ID)
		}
	}
	slices.Sort(out.ReducedRequests)
	slices.Sort(out.LotteryDropped)
	for i := range out.Matches { // a reduced offer that traded elsewhere is not reduced
		delete(st.reducedOff, out.Matches[i].Offer.ID)
	}
	for id := range st.reducedOff {
		out.ReducedOffers = append(out.ReducedOffers, id)
	}
	slices.Sort(out.ReducedOffers)
	settle(out)
}
