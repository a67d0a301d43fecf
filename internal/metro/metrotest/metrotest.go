// Package metrotest is the differential harness of the geo-federation
// layer (internal/metro), mirroring book/booktest one level up: seeded
// multi-round arrival traces over a geo-scattered workload replay
// simultaneously through a federation and through reference models, and
// every divergence is an error.
//
// Two guarantees are enforced:
//
//  1. Single-metro identity — a Metros=1 federation must be
//     byte-identical, round by round, to one monolithic book.Book fed
//     the same batches (which booktest in turn proves byte-identical to
//     the from-scratch mechanism), and the harness additionally
//     cross-checks each round against auction.Run over the exact union
//     market.
//  2. Conservation — after every cross-settlement round, across all
//     exchanges: submitted == rejected + matched (local + after-spill)
//     + expired + live, and no order is live in (or settled by) two
//     metros.
package metrotest

import (
	"bytes"
	"fmt"
	"math/rand"

	"decloud/internal/auction"
	"decloud/internal/auction/paralleltest"
	"decloud/internal/bidding"
	"decloud/internal/book"
	"decloud/internal/metro"
	"decloud/internal/workload"
)

// RoundInput is one cross-settlement round's arrivals.
type RoundInput struct {
	Reqs     []*bidding.Request
	Offs     []*bidding.Offer
	Evidence []byte
}

// Trace is a seeded multi-round arrival sequence over a geo workload.
type Trace struct {
	Seed   int64
	Rounds []RoundInput
}

// NewTrace generates a deterministic trace: a geo-scattered market of
// roughly n requests (GeoRadius locality constraints included, so
// spilled requests' MaxDistance tightening has bite) split across the
// given number of rounds by a seeded shuffle. Every order appears
// exactly once.
func NewTrace(seed int64, n, rounds int) *Trace {
	if rounds < 1 {
		rounds = 1
	}
	// Vary the market shape with the seed: flexibility and locality
	// radius sweep the paper's Fig. 5 axes so traces cover tight and
	// loose markets alike.
	m := workload.Generate(workload.Config{
		Seed:        seed,
		Requests:    n,
		Flexibility: float64(seed%4) * 0.25,
		GeoRadius:   0.3 + float64(seed%5)*0.15,
	})
	rng := rand.New(rand.NewSource(seed ^ 0x6d6574726f)) // "metro"
	rng.Shuffle(len(m.Requests), func(i, j int) {
		m.Requests[i], m.Requests[j] = m.Requests[j], m.Requests[i]
	})
	rng.Shuffle(len(m.Offers), func(i, j int) {
		m.Offers[i], m.Offers[j] = m.Offers[j], m.Offers[i]
	})
	tr := &Trace{Seed: seed, Rounds: make([]RoundInput, rounds)}
	for i := range tr.Rounds {
		tr.Rounds[i].Evidence = []byte(fmt.Sprintf("metrotest-%d-%d", seed, i))
	}
	// Offers front-loaded slightly (first round gets the remainder) so
	// early rounds have supply to clear against.
	for i, r := range m.Requests {
		tr.Rounds[i%rounds].Reqs = append(tr.Rounds[i%rounds].Reqs, r)
	}
	for i, o := range m.Offers {
		tr.Rounds[i%rounds].Offs = append(tr.Rounds[i%rounds].Offs, o)
	}
	return tr
}

// Replay runs a trace through a federation under cfg, checking
// conservation after every round, and returns the final federation
// stats.
// When audit is non-nil it is called once per (round, metro) with the
// exact order set the outcome was computed over — the property-test
// hook.
func Replay(cfg metro.Config, tr *Trace, audit func(round, m int, reqs []*bidding.Request, offs []*bidding.Offer, out *auction.Outcome) error) (metro.Stats, error) {
	f, err := metro.New(cfg)
	if err != nil {
		return metro.Stats{}, err
	}
	for i, round := range tr.Rounds {
		rr, err := f.Round(round.Reqs, round.Offs, round.Evidence)
		if err != nil {
			return metro.Stats{}, fmt.Errorf("round %d: %w", i, err)
		}
		if audit != nil {
			for m, out := range rr.Outcomes {
				if err := audit(i, m, rr.UnionRequests[m], rr.UnionOffers[m], out); err != nil {
					return metro.Stats{}, fmt.Errorf("round %d metro %d: %w", i, m, err)
				}
			}
		}
		if err := f.CheckConservation(); err != nil {
			return metro.Stats{}, fmt.Errorf("after round %d: %w", i, err)
		}
	}
	return f.Stats(), nil
}

// CheckSingleMetroIdentity replays a trace through a Metros=1
// federation and through a monolithic book.Book oracle fed the same
// batches, requiring byte-identical outcomes every round plus identical
// live sets at the end. It also re-derives each round's outcome with
// from-scratch auction.Run over the oracle's union market, closing the
// loop federation == book == mechanism on this trace.
func CheckSingleMetroIdentity(cfg metro.Config, tr *Trace) error {
	cfg.Metros = 1
	cfg.Latency = nil
	f, err := metro.New(cfg)
	if err != nil {
		return err
	}
	oracle := book.New(cfg.Auction)
	if cfg.MaxCarry > 0 {
		oracle.MaxCarry = cfg.MaxCarry
	}

	for i, round := range tr.Rounds {
		// From-scratch reference over the union the oracle book will
		// clear: carried live orders plus the valid new arrivals.
		liveR := oracle.LiveRequests()
		liveO := oracle.LiveOffers()
		var admitR []*bidding.Request
		for _, r := range round.Reqs {
			if r.Validate() == nil {
				admitR = append(admitR, r)
			}
		}
		var admitO []*bidding.Offer
		for _, o := range round.Offs {
			if o.Validate() == nil {
				admitO = append(admitO, o)
			}
		}
		scratchCfg := cfg.Auction
		scratchCfg.Evidence = round.Evidence
		scratch := auction.Run(append(liveR, admitR...), append(liveO, admitO...), scratchCfg)
		scratchJSON, err := paralleltest.MarshalOutcome(scratch)
		if err != nil {
			return err
		}

		rr, err := f.Round(round.Reqs, round.Offs, round.Evidence)
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		fedJSON, err := paralleltest.MarshalOutcome(rr.Outcomes[0])
		if err != nil {
			return err
		}

		want := oracle.Apply(round.Reqs, round.Offs, round.Evidence)
		oracle.AdvanceClock(round.Reqs, round.Offs)
		wantJSON, err := paralleltest.MarshalOutcome(want)
		if err != nil {
			return err
		}

		if !bytes.Equal(fedJSON, wantJSON) {
			return fmt.Errorf("round %d: single-metro federation diverges from monolithic book:\nfed  %s\nbook %s", i, fedJSON, wantJSON)
		}
		// The book adds intake rejections to the outcome that the
		// from-scratch run never sees (Run is handed only valid
		// orders), so scratch comparison is on the match set: strip
		// rejections before comparing.
		wantStripped := *want
		wantStripped.RejectedRequests = nil
		wantStripped.RejectedOffers = nil
		strippedJSON, err := paralleltest.MarshalOutcome(&wantStripped)
		if err != nil {
			return err
		}
		if !bytes.Equal(strippedJSON, scratchJSON) {
			return fmt.Errorf("round %d: monolithic book diverges from from-scratch mechanism:\nbook    %s\nscratch %s", i, strippedJSON, scratchJSON)
		}
		if err := f.CheckConservation(); err != nil {
			return fmt.Errorf("after round %d: %w", i, err)
		}
	}

	// Final live sets must agree element-wise.
	fedR := f.Exchange(0).LiveRequests()
	oraR := oracle.LiveRequests()
	if len(fedR) != len(oraR) {
		return fmt.Errorf("final live requests: federation %d, oracle %d", len(fedR), len(oraR))
	}
	for i := range fedR {
		if fedR[i].ID != oraR[i].ID {
			return fmt.Errorf("final live request %d: federation %s, oracle %s", i, fedR[i].ID, oraR[i].ID)
		}
	}
	fedO := f.Exchange(0).LiveOffers()
	oraO := oracle.LiveOffers()
	if len(fedO) != len(oraO) {
		return fmt.Errorf("final live offers: federation %d, oracle %d", len(fedO), len(oraO))
	}
	for i := range fedO {
		if fedO[i].ID != oraO[i].ID {
			return fmt.Errorf("final live offer %d: federation %s, oracle %s", i, fedO[i].ID, oraO[i].ID)
		}
	}
	return nil
}
