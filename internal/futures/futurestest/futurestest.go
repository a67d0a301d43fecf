// Package futurestest is the differential harness of the two-stage
// futures/spot market (internal/futures), mirroring metrotest one
// subsystem over: seeded multi-round two-stage traces replay through a
// futures.Exchange and through reference models, and every divergence
// is an error.
//
// Three guarantees are enforced:
//
//  1. Disabled identity — with the reservation stage off
//     (ReserveHorizon = 0, OverbookRatio = 1.0) and every order routed
//     spot, each round's Spot outcome must be byte-identical to plain
//     auction.Run over the same orders, config, and evidence.
//  2. Worker independence — the spot stage's parallel fan-out must
//     not change a single outcome byte, a chain head, or a
//     conservation counter at any worker count.
//  3. Conservation — after every round: submitted == rejected +
//     delivered + spot-matched + defaulted + expired + live on the
//     request side, the offer-side analogue, and penalty budget
//     balance (checked by the exchange itself, re-checked here after
//     a full drain when live must be zero).
package futurestest

import (
	"bytes"
	"fmt"
	"math/rand"

	"decloud/internal/auction"
	"decloud/internal/auction/paralleltest"
	"decloud/internal/bidding"
	"decloud/internal/futures"
	"decloud/internal/workload"
)

// Trace is a seeded multi-round two-stage arrival sequence: every order
// appears exactly once, pre-split into the forward and spot stages with
// the divergence verdicts attached.
type Trace struct {
	Seed   int64
	Rounds []futures.RoundInput
}

// NewTrace generates a deterministic trace of roughly n orders split
// across the given number of rounds by a seeded shuffle. The market
// shape varies with the seed — flexibility, forward split, and the
// demand/supply shock rates all sweep with it — so a seed range covers
// calm and divergent regimes alike.
func NewTrace(seed int64, n, rounds int) *Trace {
	if rounds < 1 {
		rounds = 1
	}
	m := workload.Generate(workload.Config{
		Seed:        seed,
		Requests:    n,
		Flexibility: float64(seed%4) * 0.25,
	})
	tm := workload.SplitTwoStage(m, seed,
		0.3+float64(seed%5)*0.1, // forward split 0.3–0.7
		float64(seed%4)*0.1,     // demand shock 0–0.3
		float64(seed%3)*0.1,     // supply shock 0–0.2
	)
	rng := rand.New(rand.NewSource(seed ^ 0x66757475)) // "futu"
	rng.Shuffle(len(tm.Fwd.Requests), func(i, j int) {
		tm.Fwd.Requests[i], tm.Fwd.Requests[j] = tm.Fwd.Requests[j], tm.Fwd.Requests[i]
	})
	rng.Shuffle(len(tm.Spot.Requests), func(i, j int) {
		tm.Spot.Requests[i], tm.Spot.Requests[j] = tm.Spot.Requests[j], tm.Spot.Requests[i]
	})
	tr := &Trace{Seed: seed, Rounds: make([]futures.RoundInput, rounds)}
	for i := range tr.Rounds {
		tr.Rounds[i].Evidence = []byte(fmt.Sprintf("futurestest-%d-%d", seed, i))
		// The verdict maps are keyed by order ID, so sharing the full
		// split verdicts across rounds is sound: each round's Reserve
		// only looks up its own submissions.
		tr.Rounds[i].NoShows = tm.NoShows
		tr.Rounds[i].Defaults = tm.Defaults
	}
	for i, r := range tm.Fwd.Requests {
		tr.Rounds[i%rounds].FwdRequests = append(tr.Rounds[i%rounds].FwdRequests, r)
	}
	for i, o := range tm.Fwd.Offers {
		tr.Rounds[i%rounds].FwdOffers = append(tr.Rounds[i%rounds].FwdOffers, o)
	}
	for i, r := range tm.Spot.Requests {
		tr.Rounds[i%rounds].SpotRequests = append(tr.Rounds[i%rounds].SpotRequests, r)
	}
	for i, o := range tm.Spot.Offers {
		tr.Rounds[i%rounds].SpotOffers = append(tr.Rounds[i%rounds].SpotOffers, o)
	}
	return tr
}

// Result is one replay's observable behavior: the canonical encoding of
// every round's spot outcome (trace rounds plus the drain rounds that
// settle trailing reservations), the final chain head, the final
// conservation counters, and the final live counts. Two replays of the
// same trace under configs that must not change behavior (worker count)
// must produce equal Results.
type Result struct {
	OutcomeJSON              [][]byte
	Head                     [32]byte
	Stats                    futures.Stats
	LiveRequests, LiveOffers int64
}

// Equal reports whether two results are byte-identical.
func (r *Result) Equal(o *Result) error {
	if len(r.OutcomeJSON) != len(o.OutcomeJSON) {
		return fmt.Errorf("round counts differ: %d vs %d", len(r.OutcomeJSON), len(o.OutcomeJSON))
	}
	for i := range r.OutcomeJSON {
		if !bytes.Equal(r.OutcomeJSON[i], o.OutcomeJSON[i]) {
			return fmt.Errorf("round %d: spot outcomes differ:\n%s\nvs\n%s",
				i, r.OutcomeJSON[i], o.OutcomeJSON[i])
		}
	}
	if r.Head != o.Head {
		return fmt.Errorf("chain heads differ: %x vs %x", r.Head, o.Head)
	}
	if r.Stats != o.Stats {
		return fmt.Errorf("stats differ: %+v vs %+v", r.Stats, o.Stats)
	}
	if r.LiveRequests != o.LiveRequests || r.LiveOffers != o.LiveOffers {
		return fmt.Errorf("live counts differ: (%d,%d) vs (%d,%d)",
			r.LiveRequests, r.LiveOffers, o.LiveRequests, o.LiveOffers)
	}
	return nil
}

// Replay runs a trace through a fresh exchange under cfg, checking
// conservation after every round, then drains ReserveHorizon empty
// rounds so every trailing reservation settles before the final state
// is captured. When audit is non-nil it is called once per round
// (including drain rounds) with the round's full result — the
// property-test hook.
func Replay(cfg auction.Config, fut futures.Config, tr *Trace, audit func(round int, res *futures.RoundResult) error) (*Result, error) {
	ex := futures.New(cfg, fut)
	out := &Result{}
	step := func(round int, in futures.RoundInput) error {
		res := ex.Run(in)
		enc, err := paralleltest.MarshalOutcome(res.Spot)
		if err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		out.OutcomeJSON = append(out.OutcomeJSON, enc)
		if audit != nil {
			if err := audit(round, res); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
		}
		if err := ex.CheckConservation(); err != nil {
			return fmt.Errorf("after round %d: %w", round, err)
		}
		return nil
	}
	for i, in := range tr.Rounds {
		if err := step(i, in); err != nil {
			return nil, err
		}
	}
	for i := 0; i < fut.ReserveHorizon; i++ {
		in := futures.RoundInput{
			Evidence: []byte(fmt.Sprintf("futurestest-%d-drain-%d", tr.Seed, i)),
		}
		if err := step(len(tr.Rounds)+i, in); err != nil {
			return nil, err
		}
	}
	out.Head = ex.Head()
	out.Stats = ex.Stats()
	out.LiveRequests, out.LiveOffers = ex.Live()
	return out, nil
}

// CheckDisabledIdentity replays a trace with the reservation stage
// DISABLED (ReserveHorizon = 0, OverbookRatio = 1.0) and every order —
// forward and spot alike — routed through the spot slots. Each round's
// Spot outcome must be byte-identical to plain auction.Run over the
// same orders, config, and evidence: the delta-settlement path is a
// strict superset of the spot mechanism, never a perturbation of it.
func CheckDisabledIdentity(cfg auction.Config, tr *Trace) error {
	ex := futures.New(cfg, futures.Config{OverbookRatio: 1.0})
	for i, in := range tr.Rounds {
		// Route BOTH stages through the spot slots: with the stage
		// disabled, forward submissions would be rejected as misroutings
		// — the identity is about spot behavior, not intake policing.
		reqs := append(append([]*bidding.Request{}, in.FwdRequests...), in.SpotRequests...)
		offs := append(append([]*bidding.Offer{}, in.FwdOffers...), in.SpotOffers...)
		res := ex.Run(futures.RoundInput{
			SpotRequests: reqs,
			SpotOffers:   offs,
			Evidence:     in.Evidence,
		})
		if len(res.Reserved) != 0 || res.Delivery != nil {
			return fmt.Errorf("round %d: disabled stage produced futures activity: %d reserved, delivery %v",
				i, len(res.Reserved), res.Delivery != nil)
		}
		gotJSON, err := paralleltest.MarshalOutcome(res.Spot)
		if err != nil {
			return err
		}
		acfg := cfg
		acfg.Evidence = in.Evidence
		plain := auction.Run(reqs, offs, acfg)
		wantJSON, err := paralleltest.MarshalOutcome(plain)
		if err != nil {
			return err
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			return fmt.Errorf("round %d: disabled exchange diverges from plain auction.Run:\nexchange %s\nplain    %s",
				i, gotJSON, wantJSON)
		}
		if err := ex.CheckConservation(); err != nil {
			return fmt.Errorf("after round %d: %w", i, err)
		}
	}
	st := ex.Stats()
	if st.Reservations != 0 || st.PenaltiesCollected != 0 || st.PenaltiesCredited != 0 {
		return fmt.Errorf("disabled stage moved futures state: %+v", st)
	}
	if liveR, liveO := ex.Live(); liveR != 0 || liveO != 0 {
		return fmt.Errorf("disabled stage left live orders: %d requests, %d offers", liveR, liveO)
	}
	return nil
}
