package auction_test

import (
	"bytes"
	"slices"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/ledger"
	"decloud/internal/workload"
)

// TestRepeatedOrderIDIsRejected: a block holding a second request and a
// second offer under IDs already in it clears exactly as the block
// without them, and lists each repeat as rejected. Every entry point
// shares the rule.
func TestRepeatedOrderIDIsRejected(t *testing.T) {
	market := workload.Generate(workload.Config{Seed: 17, Requests: 60})
	reqs, offs := market.Requests, market.Offers

	// The repeats outbid and undercut their originals. A screen that let
	// them through trades the undercutting offer.
	r := *reqs[3]
	r.Resources = reqs[3].Resources.Clone()
	r.Bid, r.TrueValue = 2*r.Bid, 2*r.TrueValue
	o := *offs[18]
	o.Resources = offs[18].Resources.Clone()
	o.Bid, o.TrueCost = o.Bid/2, o.TrueCost/2
	withReqs := slices.Insert(slices.Clone(reqs), 5, &r)
	withOffs := slices.Insert(slices.Clone(offs), 19, &o)

	cfg := auction.DefaultConfig()
	cfg.Evidence = []byte("repeated-ids")
	for name, run := range map[string]func([]*bidding.Request, []*bidding.Offer, auction.Config) *auction.Outcome{
		"Run": auction.Run, "RunGreedy": auction.RunGreedy, "RunReference": auction.RunReference,
	} {
		want, got := run(reqs, offs, cfg), run(withReqs, withOffs, cfg)
		wb, err := ledger.EncodeAllocation(want)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := ledger.EncodeAllocation(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s: the repeats changed the allocation", name)
		}
		if got, want := got.RejectedRequests, append(slices.Clone(want.RejectedRequests), r.ID); !slices.Equal(got, want) {
			t.Fatalf("%s: rejected requests %v, want %v", name, got, want)
		}
		if got, want := got.RejectedOffers, append(slices.Clone(want.RejectedOffers), o.ID); !slices.Equal(got, want) {
			t.Fatalf("%s: rejected offers %v, want %v", name, got, want)
		}
	}
}
