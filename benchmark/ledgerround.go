package main

import (
	"context"
	"fmt"
	"time"

	"decloud/internal/auction"
	"decloud/internal/ledger"
	"decloud/internal/miner"
	"decloud/internal/obs"
	"decloud/internal/sealed"
	"decloud/internal/workload"
)

const ledgerMiners = 3 // the winner and two verifiers

// ledgerRound is the second round loop — the in-process miner.Network
// that sim's ledger mode and the goldens use — with one participant per
// order, two full re-executions per block and contract settlement, but
// no sockets.
type ledgerRound struct {
	p     params
	res   *runResult
	t     tally
	layer *layerStats

	cfg      auction.Config
	net      *miner.Network
	sink     *lastLine
	tracer   *obs.Tracer
	requests int
	offers   int
	round    int // rounds run so far, warm-up included
	next     *roundInput

	traced []*ledger.Block // the first traced rounds' blocks, for the autopsy
}

// roundInput is one round's fresh market and identities.
type roundInput struct {
	market *workload.Market
	parts  []*miner.Participant // requests first, then offers
}

func newLedgerRound(p params, res *runResult) scenario {
	w := &ledgerRound{p: p, res: res, cfg: auction.DefaultConfig(), layer: newLayerStats(), sink: &lastLine{}}
	// The issue's 1 500 requests + 500 offers take ≈ 3 s a round here
	// (Participant.RevealsFor is quadratic in one-identity-per-order
	// markets); half that size runs ≈ 1 s a round, ≈ 8 rounds per run.
	// -scale 2 restores the issue's size.
	w.requests = scaled(750, p.Scale, 30)
	w.offers = scaled(250, p.Scale, 10)
	w.t.limit = 5
	res.Params["requests"] = w.requests
	res.Params["offers"] = w.offers
	res.Params["miners"] = ledgerMiners
	res.Params["pow_difficulty"] = tcpDifficulty
	return w
}

func (w *ledgerRound) stats() (*tally, *layerStats) { return &w.t, w.layer }

func (w *ledgerRound) close() {
	if w.net != nil {
		w.net.Close()
	}
}

// prepare builds round i's market and identities from the seed.
func (w *ledgerRound) prepare(i int) (*roundInput, error) {
	in := &roundInput{}
	gen := timedSeconds(func() {
		// Round i has the same shape in every run (see shapedMarket); the
		// run's seed draws its economics and its identities.
		in.market = shapedMarket(int64(1000+i), w.p.Seed, w.requests, w.offers)
	})
	w.layer.observe("workload.generate_s", gen)
	n := len(in.market.Requests) + len(in.market.Offers)
	in.parts = make([]*miner.Participant, n)
	for j := range in.parts {
		p, err := miner.NewParticipant(entropy(w.p.Seed, fmt.Sprintf("ledger_round/%d", i), j))
		if err != nil {
			return nil, err
		}
		in.parts[j] = p
	}
	return in, nil
}

func (w *ledgerRound) setup() error {
	w.net = miner.NewNetwork(ledgerMiners, tcpDifficulty, w.cfg)
	w.tracer = obs.NewTracer(w.sink)
	in, err := w.prepare(0)
	if err != nil {
		return err
	}
	if err := w.runRound(in, nil, false); err != nil {
		return err
	}
	w.next, err = w.prepare(1)
	return err
}

func (w *ledgerRound) run(d time.Duration, rec *recorder) error {
	began := time.Now()
	for i := 0; i < 2 || time.Since(began) < d; i++ {
		rec.setEnabled(i%2 == 1)
		in := w.next
		if err := w.runRound(in, rec, true); err != nil {
			return err
		}
		// The next round's market and identities are set-up work, done
		// between the timed rounds.
		var err error
		if w.next, err = w.prepare(w.round); err != nil {
			return err
		}
	}
	return nil
}

var ledgerPhases = [4]string{"ledger.pow_race", "sealed.reveal_build", "miner.compute_body", "miner.verify_block_x2"}

// runRound is one round of the in-process network: every participant
// seals and submits its order, RunRound mines, collects reveals,
// computes, has the two other miners re-execute and appends, and every
// client accepts its agreement in the contract registry.
func (w *ledgerRound) runRound(in *roundInput, rec *recorder, timed bool) error {
	round := w.round
	w.round++
	w.net.Tracer = nil
	if rec.enabled() {
		w.net.Tracer = w.tracer
	}
	nreq := len(in.market.Requests)
	seal := fold{name: "sealed.seal"}
	submit := fold{name: "miner.SubmitBid"}

	var am allocMeter
	am.start()
	t0 := time.Now()
	root := rec.start("round", round, -1)
	sub := rec.start("miner.submit", round, root)
	for j, p := range in.parts {
		var bid *sealed.Bid
		var id string
		var err error
		seal.begin()
		if j < nreq {
			id = string(in.market.Requests[j].ID)
			bid, err = p.SubmitRequest(in.market.Requests[j])
		} else {
			id = string(in.market.Offers[j-nreq].ID)
			bid, err = p.SubmitOffer(in.market.Offers[j-nreq])
		}
		seal.done()
		if err == nil {
			submit.begin()
			err = w.net.SubmitBid(bid)
			submit.done()
		}
		if err != nil {
			continue // counted as failed: attempted, never committed
		}
		if timed {
			w.t.order.add(fmt.Sprintf("%d/%s", round, id), bid.Digest())
		}
	}
	rec.end(sub)
	rec.flush(&seal, round, sub, 1)
	rec.flush(&submit, round, sub, 1)

	ctx, cancel := context.WithTimeout(context.Background(), waitLimit)
	defer cancel()
	rr := rec.start("miner.RunRound", round, root)
	out, err := w.net.RunRound(ctx, in.parts)
	committed := time.Now()
	rec.end(rr)
	if err != nil {
		return fmt.Errorf("round %d: %w", round, err)
	}
	if secs, ok := phaseSpans(rec, round, rr, w.sink, ledgerPhases); ok && rec.enabled() {
		w.layer.observe("sealed.reveal_build_s", secs[1])
	}
	reg := w.net.Contracts()
	refused := 0
	settleS := spanned(rec, "contract.settle", round, root, func() {
		for _, id := range out.Agreements {
			a, err := reg.Get(id)
			if err == nil {
				err = reg.Accept(id, a.Client())
			}
			if err != nil {
				refused++
			}
		}
	})
	t1 := time.Now()
	rec.end(root)
	allocated := am.stop()

	w.res.check("round_excluded_no_bid", out.Unrevealed == 0 && out.RejectedBids == 0 && len(out.ExcludedDigests) == 0,
		"round %d: %d unrevealed, %d rejected, %d excluded", round, out.Unrevealed, out.RejectedBids, len(out.ExcludedDigests))
	w.res.check("no_producer_slashed", len(out.Offenders) == 0, "round %d: %v", round, out.Offenders)
	w.res.check("every_agreement_accepted", refused == 0 && len(out.Agreements) == len(out.Outcome.Matches),
		"round %d: %d of %d agreements refused, %d matches", round, refused, len(out.Agreements), len(out.Outcome.Matches))
	if !timed {
		return nil
	}

	took := t1.Sub(t0).Seconds()
	traced := 0
	if rec.enabled() {
		traced = 1
		w.layer.perCall("sealed.seal_us_per_order", &seal)
		w.layer.observe("contract.settle_s", settleS)
		if len(w.traced) < 3 {
			w.traced = append(w.traced, out.Block)
		}
	}
	w.t.closedRound(traced, took, committed.Sub(t0).Seconds(), len(out.Block.Bids))
	w.t.allocated += allocated
	w.t.attempted += len(in.parts)
	w.t.requests += nreq
	w.t.matched += len(out.Outcome.Matches)
	return nil
}

func (w *ledgerRound) finish(rec *recorder, res *runResult) {
	blocks := chainBlocks(w.net.Chain())
	res.Params["timed_blocks"] = len(blocks) - 1
	cfg := w.cfg
	cfg.Reputation = w.net.Contracts().Reputation() // what NewNetwork gives its miners
	verifyFresh(rec, w.layer, res, blocks, &miner.Miner{Name: "fresh", Difficulty: tcpDifficulty, AuctionCfg: cfg})
	if rec == nil {
		return
	}
	for i, b := range w.traced {
		blockAutopsy(rec, w.layer, res, i, b, cfg, tcpDifficulty, true)
	}
	chainAutopsy(rec, w.layer, res, blocks)
}
