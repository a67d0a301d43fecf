// Package sim drives end-to-end market simulations in two modes: Fast
// (the mechanism runs directly on generated orders, as in the paper's
// evaluation) and Ledger (every order travels through the full two-phase
// bid exposure protocol: sealing, mining, key reveal, allocation,
// independent verification, and contract agreement).
package sim

import (
	"context"
	"fmt"
	"math/rand"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/book"
	"decloud/internal/contract"
	"decloud/internal/ledger"
	"decloud/internal/metro"
	"decloud/internal/miner"
	"decloud/internal/obs"
	"decloud/internal/reputation"
	"decloud/internal/sealed"
	"decloud/internal/workload"
)

// Mode selects the simulation depth.
type Mode int

// Simulation modes.
const (
	// Fast runs the mechanism in-process per round.
	Fast Mode = iota
	// Ledger runs the full two-phase protocol with a miner network.
	Ledger
)

// Config parameterizes a simulation.
type Config struct {
	Mode   Mode
	Rounds int
	// Workload is the per-round market shape; its Seed advances each
	// round so rounds differ but the whole simulation is reproducible.
	Workload workload.Config
	// Miners and Difficulty configure ledger mode (defaults 3 and 8).
	Miners     int
	Difficulty int
	// DenyProb is the per-agreement probability that a client denies the
	// allocation in ledger mode, exercising the reputation system.
	DenyProb float64
	// Auction tunes the mechanism. A zero Match and a zero Workers are
	// filled from auction.DefaultConfig(); every other field is kept.
	Auction auction.Config
	// Metros, when ≥ 2, federates the market across that many metro
	// exchanges (internal/metro): every order homes to the exchange owning
	// its location's grid cell, each exchange clears its own book, and
	// requests that exhaust their carry budget spill to the
	// lowest-latency unvisited neighbor. Both modes run metro.Federation:
	// over order books in fast mode, over one miner network per metro —
	// always clearing incrementally — in ledger mode.
	Metros int
	// LatencyMatrix is the inter-metro latency model (nil →
	// metro.DefaultMatrix(Metros)). Only read when Metros ≥ 2.
	LatencyMatrix *metro.LatencyMatrix
	// MaxHops bounds a spilled request's metro visits beyond its home
	// (0 → metro.DefaultMaxHops).
	MaxHops int
	// DistancePerMS tightens spilled requests' MaxDistance by this much
	// per millisecond of spill-path latency (Eq. 18 coupling; 0 off).
	DistancePerMS float64
	// Obs, when set, is the registry the simulation publishes metrics to:
	// the mechanism, miner, and sim bundles are resolved from it and wired
	// through the whole pipeline. Purely observational — results are
	// byte-identical with Obs nil or set.
	Obs *obs.Registry
	// Tracer, when set, emits one structured JSONL timeline per round.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Rounds == 0 {
		c.Rounds = 1
	}
	if c.Miners == 0 {
		c.Miners = 3
	}
	if c.Difficulty == 0 {
		c.Difficulty = 8
	}
	def := auction.DefaultConfig()
	if c.Auction.Match.QualityBand == 0 {
		c.Auction.Match = def.Match
	}
	if c.Auction.Workers == 0 {
		c.Auction.Workers = def.Workers
	}
	return c
}

// pipelines reports whether a ledger run goes through the miner
// network's epoch pipeline, which feeds every round before the previous
// one commits: it does when no round reads the last commit — one chain,
// no denials, no order book. Every other ledger run clears round by
// round.
func (c Config) pipelines() bool {
	return c.Mode == Ledger && c.Metros <= 1 && c.DenyProb == 0 && !c.Auction.Incremental
}

// validate rejects a Mode the simulator does not know. Every market
// shape composes with every other: unmatched orders carry in the order
// book (each exchange's book under federation), never in the simulator.
func (c Config) validate() error {
	if c.Mode != Fast && c.Mode != Ledger {
		return fmt.Errorf("sim: unknown mode %d", c.Mode)
	}
	return nil
}

// RoundMetrics captures one round's market performance.
type RoundMetrics struct {
	Round        int
	Requests     int
	Offers       int
	Matches      int
	Welfare      float64 // DeCloud's realized welfare (true values)
	BenchWelfare float64 // non-truthful greedy benchmark on the same orders
	WelfareRatio float64 // Welfare / BenchWelfare (0 when benchmark is 0)
	// ReducedRate is the fraction of trades lost to the truthful design
	// relative to the benchmark: (bench matches − matches)/bench matches,
	// clamped at 0.
	ReducedRate  float64
	Satisfaction float64 // fraction of requests allocated
	Payments     float64 // total client payments (= provider revenues)
	// Ledger-mode extras.
	BlockHeight int64
	Winner      string
	Agreed      int
	Denied      int
}

// Result aggregates a full simulation.
type Result struct {
	Rounds []RoundMetrics
	// Reputation is the final reputation snapshot in ledger mode (nil in
	// Fast mode): the deny penalties and accept rewards accumulated by
	// every participant identity across all rounds.
	Reputation []reputation.ParticipantScore
}

// TotalWelfare sums realized welfare over all rounds (Eq. 15).
func (r *Result) TotalWelfare() float64 {
	var w float64
	for _, m := range r.Rounds {
		w += m.Welfare
	}
	return w
}

// MeanWelfareRatio averages the per-round DeCloud/benchmark ratio over
// rounds where the benchmark traded.
func (r *Result) MeanWelfareRatio() float64 {
	var sum float64
	var n int
	for _, m := range r.Rounds {
		if m.BenchWelfare > 0 {
			sum += m.WelfareRatio
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Run executes the simulation: one loop — source → clear → fold metrics
// → (settle) → obs — over the clearer of the configured market shape. A
// ledger run is pipelined whenever Config.pipelines allows it.
func Run(cfg Config) (*Result, error) { return run(cfg, cfg.pipelines()) }

// run is Run with the caller choosing how a single-chain ledger run
// clears: pipelined or round by round. The tests compare the two.
func run(cfg Config, pipelined bool) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Observability wiring: the mechanism bundle rides inside the auction
	// config (so both fast rounds and every ledger miner publish to it),
	// the sim bundle tracks market-level totals.
	sm := obs.NewSimMetrics(cfg.Obs)
	cfg.Auction.Obs = obs.NewMechanismMetrics(cfg.Obs)

	// The market shape is chosen once. Ledger mode keeps ONE network (one
	// per metro under federation) and participant set across rounds: the
	// chain grows block by block and reputation persists, as it would in
	// a deployment. Fast mode keeps one persistent book, or one
	// federation of M exchange books, mirroring what the miners do per
	// block.
	next := marketSource(cfg)
	var clr clearer
	var net *miner.Network
	var fed *metro.Federation
	var fednets []*ledgerExchange
	roster := make(map[bidding.ParticipantID]*miner.Participant)
	var err error
	switch {
	case cfg.Metros > 1:
		if fed, fednets, err = newFederation(cfg, roster); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		clr = federationClearer(cfg, fed, fednets)
	case cfg.Mode == Ledger:
		net = miner.NewNetwork(cfg.Miners, cfg.Difficulty, cfg.Auction)
		net.Obs = obs.NewMinerMetrics(cfg.Obs)
		net.Tracer = cfg.Tracer
		if !pipelined {
			clr = ledgerClearer(net, roster)
		} else if next, clr, err = pipelinedRounds(cfg, net, roster, next); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	case cfg.Auction.Incremental:
		clr = bookClearer(cfg)
	default:
		clr = scratchClearer(cfg)
	}

	res := &Result{}
	for round := 0; round < cfg.Rounds; round++ {
		market := next(round)
		var m RoundMetrics
		c, err := clr(round, market)
		if err == nil {
			m = fold(c, cfg)
			err = settle(cfg, round, c, &m)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: round %d: %w", round, err)
		}
		m.Round = round
		m.Requests = len(market.Requests)
		m.Offers = len(market.Offers)

		if sm != nil {
			sm.Rounds.Inc()
			sm.Requests.Add(int64(m.Requests))
			sm.Offers.Add(int64(m.Offers))
			sm.Matches.Add(int64(m.Matches))
			sm.Agreed.Add(int64(m.Agreed))
			sm.Denied.Add(int64(m.Denied))
			sm.WelfareSum.Add(m.Welfare)
		}
		if cfg.Mode == Fast && cfg.Tracer != nil {
			// Fast mode has no protocol phases; emit a one-event timeline
			// per round so -trace-out is useful in both modes. (Ledger
			// rounds trace inside miner.Network.RunRound.)
			tr := cfg.Tracer.StartRound(int64(round))
			tr.Event("allocation_computed", map[string]any{
				"matches": m.Matches, "requests": m.Requests, "offers": m.Offers,
			})
			tr.End()
		}
		res.Rounds = append(res.Rounds, m)
	}

	if net != nil {
		res.Reputation = net.Contracts().Reputation().Snapshot()
	}
	// The conservation identity must hold at every exit: an order that
	// fell between two metros is a bug, not a metric.
	if fed != nil {
		// Ledger mode: one chain per metro, and no request on two of them.
		chains := make([]*ledger.Chain, len(fednets))
		for m, x := range fednets {
			res.Reputation = append(res.Reputation, x.net.Contracts().Reputation().Snapshot()...)
			chains[m] = x.net.Chain()
		}
		err := fed.CheckConservation()
		if err == nil {
			_, _, err = ledger.CheckNoDoubleSettle(nil, chains...)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	return res, nil
}

// clearing is what one round's clear hands to the shared fold.
type clearing struct {
	// outcomes holds one outcome per exchange that cleared, with the
	// generator's private valuations on its matched orders.
	outcomes []*auction.Outcome
	// reqs/offs are the market the clear ran over: the greedy
	// benchmark's input, and reqs is the satisfaction denominator.
	reqs []*bidding.Request
	offs []*bidding.Offer
	// blocks are the committed blocks whose agreements await settlement
	// (ledger mode).
	blocks []committed
}

// committed is one ledger block with the registry its agreements live
// in and the way a client refuses one of them.
type committed struct {
	res  *miner.RoundResult
	reg  *contract.Registry
	deny func(contract.AgreementID, bidding.ParticipantID) (bidding.ParticipantID, error)
}

// source yields everything submitted in one round.
type source func(round int) *workload.Market

// clearer is one market shape: it clears a round's market and reports
// what cleared.
type clearer func(round int, market *workload.Market) (*clearing, error)

// roundEvidence is the stand-in for a block's PoW evidence in fast mode.
func roundEvidence(cfg Config, round int) []byte {
	return []byte(fmt.Sprintf("sim-fast-%d-%d", cfg.Workload.Seed, round))
}

// scratchClearer clears each round from scratch with auction.Run, under
// the round's evidence like every other shape.
func scratchClearer(cfg Config) clearer {
	return func(round int, market *workload.Market) (*clearing, error) {
		acfg := cfg.Auction
		acfg.Evidence = roundEvidence(cfg, round)
		out := auction.Run(market.Requests, market.Offers, acfg)
		return &clearing{outcomes: []*auction.Outcome{out}, reqs: market.Requests, offs: market.Offers}, nil
	}
}

// bookClearer clears over one persistent order book: the round's market
// joins the carried live set and the book re-scores only what the
// arrivals dirtied. The greedy benchmark runs over the same union
// market the book cleared, keeping the welfare ratio comparable to
// from-scratch rounds.
func bookClearer(cfg Config) clearer {
	bk := book.New(cfg.Auction)
	return func(round int, market *workload.Market) (*clearing, error) {
		c := &clearing{
			reqs: append(bk.LiveRequests(), market.Requests...),
			offs: append(bk.LiveOffers(), market.Offers...),
		}
		c.outcomes = []*auction.Outcome{bk.Apply(market.Requests, market.Offers, roundEvidence(cfg, round))}
		bk.AdvanceClock(market.Requests, market.Offers)
		return c, nil
	}
}

// ledgerClearer pushes every order through the two-phase protocol on the
// simulation's persistent network. The block clears over what the book
// (under Auction.Incremental) carried into the round and the round's
// market.
func ledgerClearer(net *miner.Network, roster map[bidding.ParticipantID]*miner.Participant) clearer {
	truth := groundTruth{}
	return func(_ int, market *workload.Market) (*clearing, error) {
		var reqs []*bidding.Request
		var offs []*bidding.Offer
		if bk := net.Book(); bk != nil {
			reqs, offs = bk.LiveRequests(), bk.LiveOffers()
		}
		participants, err := submitMarket(net, roster, market.Requests, market.Offers)
		if err != nil {
			return nil, err
		}
		res, err := net.RunRound(context.Background(), participants)
		if err != nil {
			return nil, err
		}
		c := ledgerClearing(net, res, append(reqs, market.Requests...), append(offs, market.Offers...))
		return truth.restore(c, market), nil
	}
}

// ledgerClearing wraps one committed block of the single-chain ledger,
// cleared over reqs and offs.
func ledgerClearing(net *miner.Network, res *miner.RoundResult, reqs []*bidding.Request, offs []*bidding.Offer) *clearing {
	return &clearing{
		outcomes: []*auction.Outcome{res.Outcome},
		reqs:     reqs,
		offs:     offs,
		blocks:   []committed{{res: res, reg: net.Contracts(), deny: net.Contracts().Deny}},
	}
}

// pipelinedRounds drives every round through the miner network's
// two-stage epoch pipeline up front — round n+1's market is generated,
// submitted, and its reveals collected while round n's block is still
// being computed and verified — and returns the source and clearer that
// replay the batch through the round loop. The feed only generates
// workloads (seeded per round, never reading prior outcomes), so the
// pipelined simulation is outcome-equivalent to the sequential ledger
// loop. Agreement settlement (all accepts: a run with denials is never
// pipelined) thus happens after the batch, off the critical path.
func pipelinedRounds(cfg Config, net *miner.Network, roster map[bidding.ParticipantID]*miner.Participant, next source) (source, clearer, error) {
	markets := make([]*workload.Market, cfg.Rounds)
	var feedErr error
	rounds, err := net.RunPipelined(context.Background(), cfg.Rounds, func(round int) []*miner.Participant {
		markets[round] = next(round)
		parts, err := submitMarket(net, roster, markets[round].Requests, markets[round].Offers)
		if err != nil {
			feedErr = err
		}
		return parts
	})
	net.Close()
	if err == nil {
		err = feedErr
	}
	replay, truth := func(round int) *workload.Market { return markets[round] }, groundTruth{}
	return replay, func(round int, market *workload.Market) (*clearing, error) {
		if err := rounds[round].Err; err != nil {
			return nil, err
		}
		return truth.restore(ledgerClearing(net, rounds[round].Result, market.Requests, market.Offers), market), nil
	}, err
}

// fold turns one round's clearing into its metrics row: the outcomes'
// totals and the non-truthful greedy benchmark over the market the clear
// ran over.
func fold(c *clearing, cfg Config) RoundMetrics {
	var m RoundMetrics
	for _, out := range c.outcomes {
		m.Matches += len(out.Matches)
		m.Welfare += out.Welfare()
		m.Payments += out.TotalPayments()
	}
	bench := auction.RunGreedy(c.reqs, c.offs, cfg.Auction)
	m.BenchWelfare = bench.Welfare()
	if nb := len(bench.Matches); nb > m.Matches {
		m.ReducedRate = float64(nb-m.Matches) / float64(nb)
	}
	if m.BenchWelfare > 0 {
		m.WelfareRatio = m.Welfare / m.BenchWelfare
	}
	if len(c.reqs) > 0 {
		m.Satisfaction = float64(m.Matches) / float64(len(c.reqs))
	}
	for _, b := range c.blocks {
		if h := b.res.Block.Preamble.Height; h > m.BlockHeight {
			m.BlockHeight = h
		}
		if m.Winner == "" {
			m.Winner = b.res.Winner
		}
	}
	return m
}

// settle lets the clients decide on the round's agreements: each is
// denied with probability DenyProb, accepted otherwise. A denied
// allocation never executes, and the denying client pays for it in
// reputation.
func settle(cfg Config, round int, c *clearing, m *RoundMetrics) error {
	if len(c.blocks) == 0 {
		return nil // fast mode: nothing was committed, nothing to settle
	}
	rnd := rand.New(rand.NewSource(cfg.Workload.Seed + int64(round)))
	for _, b := range c.blocks {
		for _, id := range b.res.Agreements {
			a, err := b.reg.Get(id)
			if err != nil {
				return err
			}
			if rnd.Float64() < cfg.DenyProb {
				if _, err := b.deny(id, a.Client()); err != nil {
					return err
				}
				m.Denied++
			} else {
				if err := b.reg.Accept(id, a.Client()); err != nil {
					return err
				}
				m.Agreed++
			}
		}
	}
	return nil
}

// marketSource returns the per-round market generator: a per-round
// seeded Generate.
//
// Every order ID is unique across a run, whatever outlives its round (a
// book, a federation and its cross-chain audit). The generator reuses
// IDs from round to round, so its rounds are namespaced.
func marketSource(cfg Config) source {
	return func(round int) *workload.Market {
		wcfg := cfg.Workload
		wcfg.Seed = cfg.Workload.Seed + int64(round)*1009
		market := workload.Generate(wcfg)
		namespaceIDs(market, round)
		return market
	}
}

// namespaceIDs tags the IDs of a freshly generated market with its
// round.
func namespaceIDs(market *workload.Market, round int) {
	tag := func(id bidding.OrderID) bidding.OrderID {
		return bidding.OrderID(fmt.Sprintf("%s@r%d", id, round))
	}
	for _, r := range market.Requests {
		r.ID = tag(r.ID)
	}
	for _, o := range market.Offers {
		o.ID = tag(o.ID)
	}
}

// groundTruth is the generator's private valuation or cost of every
// order of a run, by order ID (its request and offer IDs never collide).
type groundTruth map[bidding.OrderID]float64

// restore records the round's market in g and copies TrueValue/TrueCost
// from g onto the orders c cleared over and the orders its outcomes
// matched. Private values never travel on the wire, so the orders a
// ledger decrypts, fresh or carried in its books, carry zeros; re-joined
// here, welfare means the same thing in both modes. Only the simulator
// can do this: on a real ledger the private values stay private.
func (g groundTruth) restore(c *clearing, market *workload.Market) *clearing {
	for _, r := range market.Requests {
		g[r.ID] = r.TrueValue
	}
	for _, o := range market.Offers {
		g[o.ID] = o.TrueCost
	}
	for _, r := range c.reqs {
		r.TrueValue = g[r.ID]
	}
	for _, o := range c.offs {
		o.TrueCost = g[o.ID]
	}
	for _, out := range c.outcomes {
		for _, m := range out.Matches {
			m.Request.TrueValue, m.Offer.TrueCost = g[m.Request.ID], g[m.Offer.ID]
		}
	}
	return c
}

// submitMarket seals every order through the roster's participants
// (creating an identity on first sight of a logical actor — the roster
// persists across rounds so reputations attach to stable identities) and
// submits the sealed bids to the network. The orders' owner fields are
// rewritten to the participants' key fingerprints. It returns the
// participants that bid, in order of first appearance.
func submitMarket(net *miner.Network, roster map[bidding.ParticipantID]*miner.Participant, reqs []*bidding.Request, offs []*bidding.Offer) ([]*miner.Participant, error) {
	var order []*miner.Participant
	seen := make(map[*miner.Participant]bool)
	submit := func(logical bidding.ParticipantID, seal func(*miner.Participant) (*sealed.Bid, error)) error {
		p := roster[logical]
		if p == nil {
			var err error
			if p, err = miner.NewParticipant(nil); err != nil {
				return err
			}
			roster[logical] = p
		}
		if !seen[p] {
			seen[p] = true
			order = append(order, p)
		}
		bid, err := seal(p)
		if err != nil {
			return err
		}
		return net.SubmitBid(bid)
	}
	for _, r := range reqs {
		if err := submit(r.Client, func(p *miner.Participant) (*sealed.Bid, error) { return p.SubmitRequest(r) }); err != nil {
			return nil, err
		}
	}
	for _, o := range offs {
		if err := submit(o.Provider, func(p *miner.Participant) (*sealed.Bid, error) { return p.SubmitOffer(o) }); err != nil {
			return nil, err
		}
	}
	return order, nil
}
