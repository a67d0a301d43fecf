package sim

import (
	"context"
	"fmt"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/book"
	"decloud/internal/contract"
	"decloud/internal/metro"
	"decloud/internal/miner"
	"decloud/internal/obs"
	"decloud/internal/reputation"
	"decloud/internal/workload"
)

// newFederation builds the simulation's metro federation (DESIGN.md
// §15): over one order book per metro in fast mode, over one persistent
// miner network per metro — returned beside it — in ledger mode. Homing,
// the spill rule and the conservation audit are metro.Federation's in
// both.
func newFederation(cfg Config, roster map[bidding.ParticipantID]*miner.Participant) (*metro.Federation, []*ledgerExchange, error) {
	mcfg := metro.Config{
		Metros:        cfg.Metros,
		Latency:       cfg.LatencyMatrix,
		MaxHops:       cfg.MaxHops,
		DistancePerMS: cfg.DistancePerMS,
		Auction:       cfg.Auction,
		Obs:           obs.NewMetroMetrics(cfg.Obs, cfg.Metros),
	}
	if cfg.Mode == Fast {
		fed, err := metro.New(mcfg)
		return fed, nil, err
	}
	// An exchange that cannot carry cannot spill: the networks clear over
	// the order book whatever the caller set.
	acfg := cfg.Auction
	acfg.Incremental = true
	mm := obs.NewMinerMetrics(cfg.Obs)
	nets := make([]*ledgerExchange, cfg.Metros)
	exchanges := make([]metro.Exchange, cfg.Metros)
	for m := range nets {
		relay, err := miner.NewParticipant(nil)
		if err != nil {
			return nil, nil, err
		}
		net := miner.NewNetwork(cfg.Miners, cfg.Difficulty, acfg)
		net.Book().SetTrackRemovals(true)
		net.Obs = mm
		if m == 0 {
			net.Tracer = cfg.Tracer
		}
		nets[m] = &ledgerExchange{net: net, roster: roster, relay: relay}
		exchanges[m] = nets[m]
	}
	fed, err := metro.New(mcfg, exchanges...)
	return fed, nets, err
}

// ledgerExchange is one metro's market in ledger mode, as the
// federation sees it (metro.Exchange): a persistent miner network with
// its own chain, whose book replicas carry the market between blocks.
// The exchanges of one federation share the roster; the federation
// clears them one at a time, in metro order.
type ledgerExchange struct {
	net    *miner.Network
	roster map[bidding.ParticipantID]*miner.Participant
	// relay seals the requests that spill in from sibling metros — the
	// exchange's own identity, the hub-and-spoke broker of the DZX model.
	relay *miner.Participant
	// last is the block the latest Clear committed, nil when it cut none.
	last *miner.RoundResult
}

// Clear seals the arrivals through the roster and the spilled-in
// requests through the relay, runs one protocol round over them and
// harvests the first replica's removals. The block's own proof-of-work
// is the evidence the clear ran under; the federation's is not used. An
// empty batch cuts no block.
func (x *ledgerExchange) Clear(reqs []*bidding.Request, offs []*bidding.Offer, spilledIn []*bidding.Request, _ []byte) (*auction.Outcome, book.Removals, error) {
	x.last = nil
	parts, err := submitMarket(x.net, x.roster, reqs, offs)
	if err != nil {
		return nil, book.Removals{}, err
	}
	for _, r := range spilledIn {
		bid, err := x.relay.SubmitRequest(r)
		if err == nil {
			err = x.net.SubmitBid(bid)
		}
		if err != nil {
			return nil, book.Removals{}, fmt.Errorf("spilled request %s: %w", r.ID, err)
		}
	}
	if len(spilledIn) > 0 {
		parts = append(parts, x.relay)
	}
	if x.net.MempoolSize() == 0 {
		return nil, book.Removals{}, nil
	}
	res, err := x.net.RunRound(context.Background(), parts)
	if err != nil {
		return nil, book.Removals{}, err
	}
	x.last = res
	out, rem := res.Outcome, x.net.Book().TakeRemovals()
	if res.Unrevealed+res.RejectedBids > 0 {
		out = x.withExcluded(out, rem, append(reqs, spilledIn...), offs)
	}
	return out, rem, nil
}

func (x *ledgerExchange) LiveRequests() []*bidding.Request { return x.net.Book().LiveRequests() }
func (x *ledgerExchange) LiveOffers() []*bidding.Offer     { return x.net.Book().LiveOffers() }

// withExcluded returns a block's outcome with every order of the batch
// that the chain excluded — its key reveal never arrived, or it failed
// decryption — listed as rejected. Such a bid was submitted but never
// reached the book, so nothing else records its fate: it is whatever in
// the batch is neither matched, rejected at admission, removed, nor live
// afterwards.
func (x *ledgerExchange) withExcluded(block *auction.Outcome, rem book.Removals, reqs []*bidding.Request, offs []*bidding.Offer) *auction.Outcome {
	out := *block
	inBookR, inBookO := make(map[bidding.OrderID]bool), make(map[bidding.OrderID]bool)
	for _, m := range out.Matches {
		inBookR[m.Request.ID], inBookO[m.Offer.ID] = true, true
	}
	for _, r := range append(x.LiveRequests(), rem.CarriedRequests...) {
		inBookR[r.ID] = true
	}
	for _, o := range append(x.LiveOffers(), rem.CarriedOffers...) {
		inBookO[o.ID] = true
	}
	for _, id := range append(rem.ExpiredRequests, out.RejectedRequests...) {
		inBookR[id] = true
	}
	for _, id := range append(rem.ExpiredOffers, out.RejectedOffers...) {
		inBookO[id] = true
	}
	out.RejectedRequests = append([]bidding.OrderID(nil), out.RejectedRequests...)
	for _, r := range reqs {
		if !inBookR[r.ID] {
			out.RejectedRequests = append(out.RejectedRequests, r.ID)
		}
	}
	out.RejectedOffers = append([]bidding.OrderID(nil), out.RejectedOffers...)
	for _, o := range offs {
		if !inBookO[o.ID] {
			out.RejectedOffers = append(out.RejectedOffers, o.ID)
		}
	}
	return &out
}

// denyAtOrigin refuses an agreement settled on metro m's chain. The
// agreement settles (Denied) there — on the chain that cleared it — but
// the reputational penalty is recorded in the store of the request's
// ORIGIN metro, so a client whose request spilled decays where its
// future requests will be scored.
func denyAtOrigin(fed *metro.Federation, nets []*ledgerExchange, m int, id contract.AgreementID, caller bidding.ParticipantID) (bidding.ParticipantID, error) {
	reg := nets[m].net.Contracts()
	a, err := reg.Get(id)
	if err != nil {
		return "", err
	}
	var rep *reputation.Store // nil: the clearing metro's own
	if origin, ok := fed.Origin(bidding.OrderID(a.Record.RequestID)); ok {
		rep = nets[origin].net.Contracts().Reputation()
	}
	return reg.DenyInto(id, caller, rep)
}

// federationClearer drives one cross-settlement round of the persistent
// federation. The greedy benchmark runs over the union of every
// exchange's cleared market — a single global (un-federated) market — so
// the welfare ratio measures what federation costs against an
// omniscient central matcher. In ledger mode (nets set) every metro that
// cut a block hands its agreements to settlement.
func federationClearer(cfg Config, fed *metro.Federation, nets []*ledgerExchange) clearer {
	truth := groundTruth{}
	return func(round int, market *workload.Market) (*clearing, error) {
		res, err := fed.Round(market.Requests, market.Offers, roundEvidence(cfg, round))
		if err != nil {
			return nil, err
		}
		c := &clearing{}
		for m, out := range res.Outcomes {
			if out == nil {
				continue
			}
			c.outcomes = append(c.outcomes, out)
			c.reqs = append(c.reqs, res.UnionRequests[m]...)
			c.offs = append(c.offs, res.UnionOffers[m]...)
			if nets == nil {
				continue
			}
			c.blocks = append(c.blocks, committed{
				res: nets[m].last, reg: nets[m].net.Contracts(),
				deny: func(id contract.AgreementID, client bidding.ParticipantID) (bidding.ParticipantID, error) {
					return denyAtOrigin(fed, nets, m, id, client)
				},
			})
		}
		return truth.restore(c, market), nil
	}
}
