package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"decloud/internal/auction"
	"decloud/internal/audit"
	"decloud/internal/bidding"
	"decloud/internal/cluster"
	"decloud/internal/ledger"
	"decloud/internal/match"
	"decloud/internal/miner"
	"decloud/internal/obs"
)

// spanned runs fn under a span and returns its wall seconds (measured
// whether or not the span is recorded).
func spanned(rec *recorder, name string, round, parent int, fn func()) float64 {
	id := rec.start(name, round, parent)
	secs := timedSeconds(fn)
	rec.end(id)
	return secs
}

func timedSeconds(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// clearAutopsy pushes one market through the clearing layers by hand —
// NewIndex → BuildIndex → RunPrepared → EncodeAllocation → audit — one
// span per call, and returns the outcome and its allocation bytes.
// auction.Run is exactly that pipeline (plus order screening), which is
// checked here by comparing the bytes of a plain auction.Run.
func clearAutopsy(rec *recorder, layer *layerStats, res *runResult, round, parent int,
	reqs []*bidding.Request, offs []*bidding.Offer, cfg auction.Config) (*auction.Outcome, []byte) {

	mech := obs.NewMechanismMetrics(obs.NewRegistry())
	cfg.Obs = mech

	var ix *match.Index
	layer.observe("match.index_s", spanned(rec, "match.NewIndex", round, parent, func() {
		ix = match.NewIndex(reqs, offs, match.BlockScale(reqs, offs))
	}))
	var clusters []*cluster.Cluster
	layer.observe("cluster.build_s", spanned(rec, "cluster.BuildIndex", round, parent, func() {
		clusters = cluster.BuildIndex(ix, cfg.Match, cfg.Workers)
	}))
	layer.observe("cluster.count", float64(len(clusters)))

	var out *auction.Outcome
	prepared := rec.start("auction.RunPrepared", round, parent)
	t0 := time.Now()
	out = auction.RunPrepared(reqs, offs, ix, clusters, cfg, nil)
	t1 := time.Now()
	rec.end(prepared)
	layer.observe("auction.prepared_s", t1.Sub(t0).Seconds())
	// The split of RunPrepared comes from the mechanism's own phase
	// histograms (Config.Obs); one run, so each sum is one observation.
	prepass := mech.PrepassSeconds.Snapshot().Sum
	auctions := mech.AuctionsSeconds.Snapshot().Sum
	layer.observe("auction.prepass_s", prepass)
	layer.observe("auction.auctions_s", auctions)
	if rec.enabled() {
		mid := t0.Add(time.Duration(prepass * float64(time.Second)))
		rec.interval("auction.prepass", round, prepared, t0, mid)
		rec.interval("miniauction.auctions", round, prepared, mid, mid.Add(time.Duration(auctions*float64(time.Second))))
	}
	layer.observe("auction.mini_auctions", float64(out.MiniAuctions))
	layer.observe("match.topk_scans", float64(ix.Scans()))

	var alloc []byte
	var err error
	layer.observe("ledger.encode_alloc_s", spanned(rec, "ledger.EncodeAllocation", round, parent, func() {
		alloc, err = ledger.EncodeAllocation(out)
	}))
	res.check("encode_allocation", err == nil, "%v", err)
	layer.observe("ledger.alloc_bytes", float64(len(alloc)))

	var violations []audit.Violation
	layer.observe("audit.outcome_s", spanned(rec, "audit.Outcome", round, parent, func() {
		violations = audit.Outcome(reqs, offs, out)
	}))
	res.check("audit_zero_violations", len(violations) == 0, "%d violations: %v", len(violations), violations)

	// auction.Run as one call: its time, its allocations per order, and
	// the proof that the hand-driven pipeline above is the same clear.
	cfg.Obs = nil
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var whole *auction.Outcome
	layer.observe("auction.run_s", spanned(rec, "auction.Run", round, parent, func() {
		whole = auction.Run(reqs, offs, cfg)
	}))
	runtime.ReadMemStats(&ms1)
	layer.ratio("auction.allocs_per_order", float64(ms1.Mallocs-ms0.Mallocs), float64(len(reqs)+len(offs)))
	wholeAlloc, err := ledger.EncodeAllocation(whole)
	res.check("run_equals_prepared_pipeline", err == nil && bytes.Equal(wholeAlloc, alloc),
		"auction.Run and NewIndex+BuildIndex+RunPrepared disagree on %d orders", len(reqs)+len(offs))

	// What the mechanism gives up for truthfulness, against the greedy
	// benchmark (untimed): the guard that a speed-up did not change the
	// clear.
	reduced := len(out.ReducedRequests) + len(out.LotteryDropped)
	layer.ratio("auction.reduced_frac", float64(reduced), float64(len(out.Matches)+reduced))
	var greedy *auction.Outcome
	spanned(rec, "auction.RunGreedy", round, parent, func() { greedy = auction.RunGreedy(reqs, offs, cfg) })
	layer.ratio("auction.welfare_ratio", out.BidWelfare(), greedy.BidWelfare())
	return out, alloc
}

// blockAutopsy takes one committed block and pushes it once more, by
// hand and single-threaded, through every layer a round pushes it
// through: json.Marshal/Unmarshal → Validate → AssembleBlock → Mine →
// the per-bid steps of decryption → DecryptOrders → the clearing layers
// → audit. fromScratch says the block's allocation is the clear of its
// own orders alone (not so under the incremental book), which is then
// checked byte for byte: consensus determinism.
func blockAutopsy(rec *recorder, layer *layerStats, res *runResult, round int,
	b *ledger.Block, cfg auction.Config, difficulty int, fromScratch bool) {

	root := rec.start("autopsy", round, -1)
	defer rec.end(root)

	var data []byte
	var err error
	layer.observe("p2p.block_marshal_s", spanned(rec, "p2p.block_marshal", round, root, func() {
		data, err = json.Marshal(b)
	}))
	res.check("block_marshal", err == nil, "%v", err)
	layer.observe("p2p.block_frame_bytes", float64(len(data)))
	var copyB ledger.Block
	layer.observe("p2p.block_unmarshal_s", spanned(rec, "p2p.block_unmarshal", round, root, func() {
		err = json.Unmarshal(data, &copyB)
	}))
	res.check("block_unmarshal", err == nil, "%v", err)
	layer.observe("ledger.validate_s", spanned(rec, "ledger.Block.Validate", round, root, func() {
		err = copyB.Validate()
	}))
	res.check("block_validate", err == nil, "%v", err)

	m := &miner.Miner{Name: "autopsy", Difficulty: difficulty, AuctionCfg: cfg}
	var again *ledger.Block
	layer.observe("miner.assemble_s", spanned(rec, "miner.AssembleBlockAt", round, root, func() {
		again = m.AssembleBlockAt(b.Preamble.PrevHash, b.Preamble.Height, copyB.Bids, b.Preamble.Timestamp)
	}))
	res.check("assemble_reproduces_bids_hash", again.Preamble.BidsHash == b.Preamble.BidsHash, "height %d", b.Preamble.Height)
	layer.observe("ledger.mine_s", spanned(rec, "ledger.Mine", round, root, func() {
		err = m.Mine(context.Background(), again, 0)
	}))
	res.check("mine", err == nil, "%v", err)
	layer.observe("ledger.pow_nonce", float64(again.Preamble.Nonce))

	// The per-bid steps of DecryptOrders, one folded span each.
	reveals := make(map[[32]byte]int, len(copyB.Body.Reveals))
	for i, kr := range copyB.Body.Reveals {
		reveals[kr.BidDigest] = i
	}
	verifySig := fold{name: "sealed.Bid.VerifySignature"}
	verifyReveal := fold{name: "sealed.KeyReveal.Verify"}
	open := fold{name: "sealed.Envelope.Open"}
	decode := fold{name: "bidding.DecodeOrder"}
	var frameBytes int
	perBid := rec.start("sealed.per_bid_steps", round, root)
	for _, bid := range copyB.Bids {
		verifySig.begin()
		okSig := bid.VerifySignature()
		verifySig.done()
		i, revealed := reveals[bid.Digest()]
		if !okSig || !revealed {
			continue
		}
		kr := copyB.Body.Reveals[i]
		verifyReveal.begin()
		err := kr.Verify(bid)
		verifyReveal.done()
		if err != nil {
			continue
		}
		open.begin()
		plain, err := bid.Envelope.Open(kr.Key)
		open.done()
		if err != nil {
			continue
		}
		decode.begin()
		_, _, _ = bidding.DecodeOrder(plain)
		decode.done()
		if wire, err := json.Marshal(bid); err == nil {
			frameBytes += len(wire)
		}
	}
	rec.end(perBid)
	for _, f := range []*fold{&verifySig, &verifyReveal, &open, &decode} {
		rec.flush(f, round, perBid, 1)
	}
	layer.perCall("sealed.verify_sig_us_per_bid", &verifySig)
	layer.perCall("sealed.reveal_verify_us_per_bid", &verifyReveal)
	layer.perCall("sealed.open_us_per_bid", &open)
	layer.perCall("bidding.decode_us_per_order", &decode)
	layer.ratio("p2p.bid_frame_bytes_per_order", float64(frameBytes), float64(decode.count))

	var dec miner.DecryptResult
	layer.observe("miner.decrypt_s", spanned(rec, "miner.DecryptOrders", round, root, func() {
		dec = miner.DecryptOrders(copyB.Bids, copyB.Body.Reveals)
	}))
	layer.observe("miner.unrevealed", float64(dec.Unrevealed))
	layer.observe("miner.rejected", float64(dec.Rejected))
	res.check("all_bids_revealed_and_accepted", dec.Unrevealed == 0 && dec.Rejected == 0,
		"height %d: %d unrevealed, %d rejected", b.Preamble.Height, dec.Unrevealed, dec.Rejected)

	cfg.Evidence = b.Evidence()
	_, alloc := clearAutopsy(rec, layer, res, round, root, dec.Requests, dec.Offers, cfg)
	if fromScratch {
		res.check("allocation_is_run_of_revealed_orders", bytes.Equal(alloc, b.Body.Allocation),
			"height %d: committed allocation differs from EncodeAllocation(auction.Run(revealed orders, block evidence))", b.Preamble.Height)
	}
}

// chainAutopsy replays the committed blocks into a scratch chain, one
// ledger.append span per block, and saves it once to io.Discard.
func chainAutopsy(rec *recorder, layer *layerStats, res *runResult, blocks []*ledger.Block) {
	if len(blocks) == 0 {
		return
	}
	root := rec.start("chain_autopsy", -1, -1)
	defer rec.end(root)
	scratch := ledger.NewChain()
	for _, b := range blocks {
		var err error
		layer.observe("ledger.append_s", spanned(rec, "ledger.Chain.Append", int(b.Preamble.Height), root, func() {
			err = scratch.Append(b, nil)
		}))
		res.check("chain_links", err == nil, "height %d: %v", b.Preamble.Height, err)
	}
	var err error
	save := spanned(rec, "ledger.Chain.Save", -1, root, func() { err = scratch.Save(io.Discard) })
	res.check("chain_save", err == nil, "%v", err)
	layer.observe("ledger.save_s", save/float64(len(blocks)))
}

// verifyFresh re-executes every block on a miner that took no part in
// the run — Miner.VerifyBlock decrypts, re-runs the allocation under
// the block's evidence, compares the bytes and audits the outcome — so
// it is both the verifier's cost per block and the correctness check.
// replica, when non-nil, is an incremental miner whose book is replayed
// block by block the way a joining node would.
func verifyFresh(rec *recorder, layer *layerStats, res *runResult, blocks []*ledger.Block, fresh *miner.Miner) {
	chain := ledger.NewChain()
	bad := 0
	var firstErr error
	for _, b := range blocks {
		if err := fresh.SyncBook(chain); err != nil && firstErr == nil {
			firstErr = err
		}
		var err error
		layer.observe("miner.verify_block_s", spanned(rec, "miner.VerifyBlock", int(b.Preamble.Height), -1, func() {
			err = fresh.VerifyBlock(b)
		}))
		if err == nil {
			err = chain.Append(b, nil)
		}
		if err != nil {
			bad++
			if firstErr == nil {
				firstErr = fmt.Errorf("height %d: %w", b.Preamble.Height, err)
			}
		}
	}
	res.check("fresh_verify_block", bad == 0 && firstErr == nil, "%d of %d blocks rejected: %v", bad, len(blocks), firstErr)
}

// chainBlocks returns every block of a chain in height order.
func chainBlocks(c *ledger.Chain) []*ledger.Block {
	blocks := make([]*ledger.Block, 0, c.Len())
	for i := 0; i < c.Len(); i++ {
		blocks = append(blocks, c.BlockAt(i))
	}
	return blocks
}
