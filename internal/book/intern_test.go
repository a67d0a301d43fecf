package book

import (
	"bytes"
	"fmt"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/ledger"
	"decloud/internal/resource"
)

// TestKindChurnKeepsTheInternTableBounded runs 100 clears in which
// every block brings three kinds no earlier order had, on orders that
// match, expire or are carried out within three clears. Every clear must
// encode the allocation auction.Run computes over the live orders, and
// after every clear the intern table must hold at most twice the kinds
// live in it — so it was rebuilt, and the digests renumbered, many
// times along the way.
func TestKindChurnKeepsTheInternTableBounded(t *testing.T) {
	cfg := auction.DefaultConfig()
	cfg.Workers = 1
	b := New(cfg)
	b.MaxCarry = 2
	rebuilds, matched := 0, 0
	for c := range 100 {
		now := int64(c) * 10
		b.ExpireBefore(now)
		for i := range 8 {
			k := i % 2
			if i >= 6 {
				k = 2 // never offered: these requests expire
			}
			fresh := resource.Kind(fmt.Sprintf("k%03d-%d", c, k))
			b.InsertRequest(&bidding.Request{
				ID: bidding.OrderID(fmt.Sprintf("r%03d-%d", c, i)), Client: bidding.ParticipantID(fmt.Sprintf("c%d", i)), Submitted: now + int64(i),
				Resources: resource.Vector{resource.CPU: 1 + float64(i%3), fresh: 1},
				Start:     now, End: now + 15, Duration: 5, Bid: 20 + float64(i),
			})
		}
		for i := range 6 {
			b.InsertOffer(&bidding.Offer{
				ID: bidding.OrderID(fmt.Sprintf("o%03d-%d", c, i)), Provider: bidding.ParticipantID(fmt.Sprintf("p%d", i)), Submitted: now + int64(i),
				Resources: resource.Vector{resource.CPU: 4, resource.RAM: 8, resource.Kind(fmt.Sprintf("k%03d-%d", c, i%2)): 2},
				Start:     now, End: now + 25, Bid: 1 + float64(i),
			})
		}

		reqs, offs := b.LiveRequests(), b.LiveOffers()
		live := map[resource.Kind]bool{}
		for _, r := range reqs {
			for k := range r.Resources {
				live[k] = true
			}
		}
		for _, o := range offs {
			for k := range o.Resources {
				live[k] = true
			}
		}
		before := b.ixScratch.Interned()
		ev := fmt.Appendf(nil, "churn-%d", c)
		run := cfg
		run.Evidence = ev
		want, err := ledger.EncodeAllocation(auction.Run(reqs, offs, run))
		if err != nil {
			t.Fatal(err)
		}
		out := b.Clear(ev)
		got, err := ledger.EncodeAllocation(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("clear %d: the book's allocation differs from auction.Run over its %d live requests and %d offers", c, len(reqs), len(offs))
		}
		if n := b.ixScratch.Interned(); n > 2*len(live) {
			t.Fatalf("clear %d: the intern table holds %d kinds, more than twice the %d live", c, n, len(live))
		} else if n < before {
			rebuilds++
		}
		matched += len(out.Matches)
	}
	if rebuilds < 10 || matched == 0 {
		t.Fatalf("%d rebuilds of the intern table and %d matches in 100 clears: the churn did not churn", rebuilds, matched)
	}
}
