package miner

import (
	"context"
	"errors"
	"fmt"
	"time"

	"decloud/internal/ledger"
	"decloud/internal/obs"
	"decloud/internal/sealed"
)

// This file implements the epoch pipeline: overlapping round n+1's
// bidding phase (mempool drain, leader election / PoW race, key-reveal
// collection) with round n's execution phase (allocation, verification,
// append). The overlap is sound because a block's identity is fixed by
// its preamble alone — Chain.HeadHash is the head *preamble* hash — so
// round n+1 can be produced against block n the moment n's production
// finishes, while n's body is still being computed and verified.
//
// The pipeline is speculative, never optimistic about consensus: if the
// committed head turns out to differ from the speculated parent (a
// Byzantine producer was rejected and the round re-mined under PoW, or
// the previous round failed outright), the in-flight production is
// flushed and redone against the real head. Reveal verdicts are keyed
// on (round, attempt, producer, digest), so a redo collects exactly the
// reveals a sequential round would have — pipelining can change wall
// clock, never bytes.

// PipelinedRound is one round's (result, error) pair — exactly what a
// sequential loop over RunRound would have produced for that round.
type PipelinedRound struct {
	Round  int
	Result *RoundResult
	Err    error
}

// pipelineStage carries one round's state across the two stages —
// RunRound's as much as RunPipelined's: a sequential round is the
// pipeline at depth 1.
type pipelineStage struct {
	round        int
	bids         []*sealed.Bid
	timestamp    int64
	participants []*Participant
	crashed      map[int]bool
	tr           *obs.RoundTrace
	roundStart   time.Time

	// Filled by produceStage.
	winnerIdx int
	block     *ledger.Block
	reveals   []*sealed.KeyReveal
	excluded  [][32]byte
	attempts  int
	committed bool // by commitStage: the bids are on the chain
}

// RunPipelined executes rounds protocol rounds as a bounded two-stage
// pipeline. feed is called at the top of each round to submit that
// round's sealed bids and return the reveal endpoints; it must not
// depend on the previous round's commit (which may still be in flight).
// Rounds that fail (empty mempool, every miner crashed, no producer
// converging) record their error and the pipeline moves on, like a
// sequential driver that logs RunRound errors and continues. Results
// are returned in round order.
func (n *Network) RunPipelined(ctx context.Context, rounds int, feed func(round int) []*Participant) ([]*PipelinedRound, error) {
	if len(n.miners) == 0 {
		return nil, ErrNoMiners
	}
	results := make([]*PipelinedRound, 0, rounds)
	var pending chan *PipelinedRound // the commit in flight, if any
	join := func() {
		if pending != nil {
			results = append(results, <-pending)
			pending = nil
		}
	}

	// The speculated parent: the preamble hash and next height of the
	// newest *produced* block, whether or not it has committed yet.
	specPrev, specHeight := n.nextParent()

	for r := 0; r < rounds; r++ {
		var participants []*Participant
		if feed != nil {
			participants = feed(r)
		}
		st, err := n.beginRound(r, participants)
		if err != nil {
			join()
			results = append(results, &PipelinedRound{Round: r, Err: err})
			continue
		}
		tr := st.tr

		// Stage 1 against the speculated parent, overlapping the
		// previous round's in-flight commit.
		produceStart := obsNow(n.Obs)
		err = n.produceStage(ctx, st, specPrev, specHeight, nil)
		if n.Obs != nil {
			n.Obs.ProduceSeconds.Observe(time.Since(produceStart).Seconds())
		}

		// Join the previous commit; its final head decides whether the
		// speculation held.
		join()
		realPrev, realHeight := n.nextParent()
		if err == nil && st.block.Preamble.PrevHash != realPrev {
			// The chain diverged from the speculation — a Byzantine
			// rejection re-mined the parent, or the parent round failed.
			// Flush the in-flight production and redo it on the real head.
			if n.Obs != nil {
				n.Obs.PipelineFlushes.Inc()
			}
			tr.Event("pipeline_flushed", map[string]any{
				"speculated_height": st.block.Preamble.Height, "height": realHeight,
			})
			err = n.produceStage(ctx, st, realPrev, realHeight, nil)
		}
		if err != nil {
			n.endRound(st)
			results = append(results, &PipelinedRound{Round: r, Err: err})
			specPrev, specHeight = realPrev, realHeight
			continue
		}
		specPrev = st.block.Preamble.Hash()
		specHeight = st.block.Preamble.Height + 1

		ch := make(chan *PipelinedRound, 1)
		pending = ch
		commit := func(st *pipelineStage) {
			commitStart := obsNow(n.Obs)
			res, err := n.commitStage(ctx, st)
			if n.Obs != nil {
				n.Obs.CommitSeconds.Observe(time.Since(commitStart).Seconds())
			}
			n.endRound(st)
			ch <- &PipelinedRound{Round: st.round, Result: res, Err: err}
		}
		if n.track() {
			go func(st *pipelineStage) {
				defer n.wg.Done()
				commit(st)
			}(st)
		} else {
			commit(st) // network closing: finish the round inline
		}
	}
	join()
	return results, nil
}

// beginRound opens one round: it drains the mempool into the round's bid
// set, ticks the logical clock, starts the round's trace, and fixes
// which miners the fault plan keeps crashed. Crashed miners sit the
// whole round out, production and verification alike.
func (n *Network) beginRound(round int, participants []*Participant) (*pipelineStage, error) {
	n.mu.Lock()
	n.clock++
	timestamp := n.clock
	n.mu.Unlock()
	bids := n.pool.Drain()
	if len(bids) == 0 {
		return nil, ErrEmptyMempool
	}
	st := &pipelineStage{
		round: round, bids: bids, timestamp: timestamp,
		participants: participants, crashed: make(map[int]bool),
		tr: n.Tracer.StartRound(timestamp), roundStart: obsNow(n.Obs),
	}
	if n.Obs != nil {
		n.Obs.Rounds.Inc()
	}
	for i, m := range n.miners {
		if n.Faults != nil && n.Faults.Crashed(timestamp, m.Name) {
			st.crashed[i] = true
		}
	}
	return st, nil
}

// endRound closes a round however it went: its trace ends, and unless
// commitStage committed them its drained bids are discarded — the
// in-process network retries nothing.
func (n *Network) endRound(st *pipelineStage) {
	st.tr.End()
	if !st.committed {
		n.pool.Discard(st.bids)
	}
}

// produceStage runs one round's bidding phase against an explicit
// parent. Phase 1: block production among the non-crashed, non-barred
// miners — under proof-of-work every one assembles the same canonical
// block and searches a disjoint nonce region, first valid PoW wins and
// cancels the rest; under proof-of-stake the stake-weighted leader for
// this height produces the block directly. Phase 1→2 boundary:
// participants validate the preamble and reveal keys for their
// committed bids; lost reveals are retried, then excluded.
func (n *Network) produceStage(ctx context.Context, st *pipelineStage, prevHash [32]byte, height int64, barred map[int]bool) error {
	var eligible []int
	for i := range n.miners {
		if !st.crashed[i] && !barred[i] {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return ErrAllCrashed
	}
	var err error
	switch n.Consensus {
	case ProofOfStake:
		st.winnerIdx, st.block = n.electLeaderAt(prevHash, height, eligible, st.bids, st.timestamp)
	default:
		st.winnerIdx, st.block, err = n.raceAt(ctx, prevHash, height, eligible, st.bids, st.timestamp)
		if err != nil {
			return err
		}
	}
	winner := n.miners[st.winnerIdx]
	st.tr.Event("preamble_sealed", map[string]any{
		"producer": winner.Name, "height": st.block.Preamble.Height, "bids": len(st.block.Bids),
	})
	st.tr.Event("consensus_decided", map[string]any{
		"consensus": n.Consensus.String(), "producer": winner.Name,
	})

	revealStart := obsNow(n.Obs)
	st.reveals, st.excluded, st.attempts = n.collectReveals(st.block, st.participants, st.timestamp, winner.Name)
	if n.Obs != nil {
		n.Obs.RevealSeconds.Observe(time.Since(revealStart).Seconds())
		n.Obs.RevealAttempts.Add(int64(st.attempts))
		n.Obs.RevealRetries.Add(int64(st.attempts - 1))
		n.Obs.ExcludedBids.Add(int64(len(st.excluded)))
	}
	st.tr.Event("reveals_collected", map[string]any{
		"attempts": st.attempts, "retries": st.attempts - 1,
		"revealed": len(st.reveals), "excluded": len(st.excluded),
	})
	return nil
}

// commitStage runs one round's execution phase. The winner executes the
// block and attaches the body; the other live miners — including ones
// barred from producing: a Byzantine producer must not escape scrutiny
// just because its accusers were themselves rejected earlier — verify
// it before the append. Under VerifyAll everyone re-executes; under
// VerifySampled each miner checks with probability SampleProb and any
// detected mismatch becomes a challenge that triggers full verification
// (TrueBit's escape from the verifier's dilemma). A rejected producer is
// slashed and barred, and production re-runs among the remaining miners
// against the round's fixed parent, over the same bids.
//
// Book replicas (incremental mode) advance here, not in produceStage:
// the producer and the verifiers preview the block against their live
// sets and absorb what they executed once it lands. Commits run one at a
// time (the pipeline joins the previous one before launching the next),
// so the books advance in block order even though production overlaps.
func (n *Network) commitStage(ctx context.Context, st *pipelineStage) (*RoundResult, error) {
	var verifiers []int
	for i := range n.miners {
		if !st.crashed[i] {
			verifiers = append(verifiers, i)
		}
	}
	barred := make(map[int]bool)
	var offenders []string
	for {
		winnerIdx, block := st.winnerIdx, st.block
		winner := n.miners[winnerIdx]
		computeStart := obsNow(n.Obs)
		ex, err := winner.execute(block, st.reveals)
		if err != nil {
			return nil, fmt.Errorf("miner: compute body: %w", err)
		}
		exs := make([]*execution, len(n.miners))
		exs[winnerIdx] = ex
		block.Body = ledger.NewBody(st.reveals, ex.alloc)
		if n.Obs != nil {
			n.Obs.ComputeSeconds.Observe(time.Since(computeStart).Seconds())
			n.Obs.UnrevealedBids.Add(int64(ex.dec.Unrevealed))
			n.Obs.RejectedBids.Add(int64(ex.dec.Rejected))
		}
		st.tr.Event("allocation_computed", map[string]any{
			"matches": len(ex.outcome.Matches), "unrevealed": ex.dec.Unrevealed, "rejected": ex.dec.Rejected,
		})

		if n.TamperBody != nil {
			n.TamperBody(winner.Name, block.Body)
		}

		verifyStart := obsNow(n.Obs)
		err = n.chain.Append(block, func(b *ledger.Block) error {
			return n.verifyByPolicy(b, winnerIdx, verifiers, exs)
		})
		if n.Obs != nil {
			n.Obs.VerifySeconds.Observe(time.Since(verifyStart).Seconds())
		}
		if err != nil {
			n.Slashed[winner.Name]++
			offenders = append(offenders, winner.Name)
			barred[winnerIdx] = true
			if n.Obs != nil {
				n.Obs.Slashes.Inc()
			}
			st.tr.Event("denied", map[string]any{"producer": winner.Name, "error": err.Error()})
			st.tr.Event("slashed", map[string]any{"producer": winner.Name})

			perr := n.produceStage(ctx, st, block.Preamble.PrevHash, block.Preamble.Height, barred)
			if errors.Is(perr, ErrAllCrashed) {
				return nil, fmt.Errorf("miner: no producer converged after %d rejection(s): %w", len(offenders), err)
			}
			if perr != nil {
				return nil, perr
			}
			continue
		}
		st.tr.Event("verified", map[string]any{"producer": winner.Name, "verifiers": len(verifiers) - 1})
		// Every book replica moves to the new head while the door still
		// vouches for the bids: a miner that executed the block absorbs
		// that execution, one that sat it out (crashed, unsampled) replays.
		for i, m := range n.miners {
			if err = m.absorb(block, exs[i]); err != nil {
				break
			}
		}
		n.pool.Committed(block.Bids, nil)
		st.committed = true
		if err != nil {
			return nil, fmt.Errorf("miner: post-append book sync: %w", err)
		}

		n.Balances[winner.Name] += DefaultBlockReward
		if n.Obs != nil {
			n.Obs.BlocksAccepted.Inc()
			n.Obs.RoundSeconds.Observe(time.Since(st.roundStart).Seconds())
		}

		ids := n.registry.ProposeFromBlock(block.Preamble.Height, mustDecode(block.Body.Allocation))
		return &RoundResult{
			Block:           block,
			Outcome:         ex.outcome,
			Winner:          winner.Name,
			Agreements:      ids,
			Unrevealed:      ex.dec.Unrevealed,
			RejectedBids:    ex.dec.Rejected,
			ExcludedDigests: st.excluded,
			RevealAttempts:  st.attempts,
			Offenders:       offenders,
		}, nil
	}
}
