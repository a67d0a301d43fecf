package futures

import (
	"fmt"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/workload"
)

// fuzzOp is one decoded lifecycle operation: either a full two-stage
// round over a slice of the base market (with verdict bits), or a
// cancel of a previously made reservation.
type fuzzOp struct {
	cancel   bool
	sel      byte // round: selection start / cancel: reservation index
	bits     byte // round: verdict + width bits
	evidence string
}

// decodeFuzzOps parses raw fuzz data into a bounded op log: 3 bytes per
// op, at most 24 ops.
func decodeFuzzOps(data []byte) []fuzzOp {
	var ops []fuzzOp
	for i := 0; i+2 < len(data) && len(ops) < 24; i += 3 {
		ops = append(ops, fuzzOp{
			cancel:   data[i]%4 == 3,
			sel:      data[i+1],
			bits:     data[i+2],
			evidence: fmt.Sprintf("fuzz-%d", len(ops)),
		})
	}
	return ops
}

// applyFuzzOps replays an op log on a fresh exchange over the shared
// base market, namespacing every submitted order by op index so the
// exchange never sees a duplicate ID. When check is non-nil it runs
// after every op (the live run audits conservation; the oracle run
// skips it). Returns the exchange for final-state comparison.
func applyFuzzOps(base *workload.Market, ops []fuzzOp, check func(op int, ex *Exchange) error) (*Exchange, error) {
	ex := New(auction.DefaultConfig(), Config{
		OverbookRatio:  1.5,
		PenaltyRate:    0.2,
		ReserveHorizon: 2,
	})
	var reserved []bidding.OrderID // reservation request IDs, in creation order
	for i, op := range ops {
		if op.cancel {
			if len(reserved) > 0 {
				// Ignore the error: cancelling an already-settled contract
				// must be a no-op, and both runs see the same sequence.
				_ = ex.Cancel(reserved[int(op.sel)%len(reserved)])
			}
		} else {
			in := RoundInput{
				NoShows:  make(map[bidding.OrderID]bool),
				Defaults: make(map[bidding.OrderID]bool),
				Evidence: []byte(op.evidence),
			}
			nR, nO := len(base.Requests), len(base.Offers)
			fwdN := int(op.bits%4) + 1
			spotN := int(op.bits / 4 % 4)
			start := int(op.sel)
			for j := 0; j < fwdN; j++ {
				r := cloneRequest(base.Requests[(start+j)%nR], i, "f")
				if op.sel>>(j%8)&1 == 1 {
					in.NoShows[r.ID] = true
				}
				in.FwdRequests = append(in.FwdRequests, r)
			}
			for j := 0; j < fwdN; j++ {
				o := cloneOffer(base.Offers[(start+j)%nO], i, "f")
				if op.bits>>(6+j%2)&1 == 1 {
					in.Defaults[o.ID] = true
				}
				in.FwdOffers = append(in.FwdOffers, o)
			}
			for j := 0; j < spotN; j++ {
				in.SpotRequests = append(in.SpotRequests, cloneRequest(base.Requests[(start+fwdN+j)%nR], i, "s"))
				in.SpotOffers = append(in.SpotOffers, cloneOffer(base.Offers[(start+fwdN+j)%nO], i, "s"))
			}
			res := ex.Run(in)
			for _, r := range res.Reserved {
				reserved = append(reserved, r.Request.ID)
			}
		}
		if check != nil {
			if err := check(i, ex); err != nil {
				return nil, err
			}
		}
	}
	return ex, nil
}

func cloneRequest(r *bidding.Request, op int, stage string) *bidding.Request {
	fresh := *r
	fresh.Resources = r.Resources.Clone()
	fresh.ID = bidding.OrderID(fmt.Sprintf("%s#%s%d", r.ID, stage, op))
	return &fresh
}

func cloneOffer(o *bidding.Offer, op int, stage string) *bidding.Offer {
	fresh := *o
	fresh.Resources = o.Resources.Clone()
	fresh.ID = bidding.OrderID(fmt.Sprintf("%s#%s%d", o.ID, stage, op))
	return &fresh
}

// FuzzReservationLifecycle drives arbitrary reserve/deliver/default/
// cancel sequences against the exchange, checks the conservation
// identity after every operation, and then replays the exact op log on
// a rebuilt-from-scratch exchange: the chain head, the cumulative
// counters, and the live sets must agree byte for byte — the exchange's
// state is a pure function of its op log.
func FuzzReservationLifecycle(f *testing.F) {
	f.Add([]byte{0, 0, 1})
	f.Add([]byte{0, 3, 0xff, 3, 0, 0, 0, 7, 0x55, 1, 9, 0xc3})
	f.Add([]byte{2, 100, 0x6a, 3, 1, 0, 3, 200, 0, 1, 50, 0x91, 0, 0, 0})
	base := workload.Generate(workload.Config{Seed: 7, Requests: 24})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeFuzzOps(data)
		if len(ops) == 0 {
			return
		}
		live, err := applyFuzzOps(base, ops, func(op int, ex *Exchange) error {
			if err := ex.CheckConservation(); err != nil {
				return fmt.Errorf("after op %d: %w", op, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := applyFuzzOps(base, ops, nil)
		if err != nil {
			t.Fatal(err)
		}
		if live.Head() != oracle.Head() {
			t.Fatalf("rebuild diverged: head %x vs %x", live.Head(), oracle.Head())
		}
		if live.Stats() != oracle.Stats() {
			t.Fatalf("rebuild diverged: stats %+v vs %+v", live.Stats(), oracle.Stats())
		}
		lr, lo := live.Live()
		or, oo := oracle.Live()
		if lr != or || lo != oo {
			t.Fatalf("rebuild diverged: live (%d,%d) vs (%d,%d)", lr, lo, or, oo)
		}
	})
}
