package book

import (
	"bytes"
	"fmt"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/ledger"
	"decloud/internal/match"
	"decloud/internal/obs"
	"decloud/internal/resource"
	"decloud/internal/workload"
)

// parkFixture is a book over a market, to which a case adds requests
// no live offer can host, parked by the warm clear.
type parkFixture struct {
	t *testing.T
	b *Book
	m *workload.Market
}

// newParkFixture is a book holding m's orders, or a generated market's.
func newParkFixture(t *testing.T, m *workload.Market) *parkFixture {
	if m == nil {
		m = workload.Generate(workload.Config{Seed: 5, Requests: 40})
	}
	cfg := auction.DefaultConfig()
	cfg.Workers = 1
	cfg.Obs = obs.NewMechanismMetrics(obs.NewRegistry())
	f := &parkFixture{t: t, b: New(cfg), m: m}
	f.b.MaxCarry = 50
	for _, r := range m.Requests {
		f.b.InsertRequest(r)
	}
	for _, o := range m.Offers {
		f.b.InsertOffer(o)
	}
	return f
}

// variant copies the market's i-th request under id, with extra demands.
func (f *parkFixture) variant(i int, id bidding.OrderID, extra resource.Vector) *bidding.Request {
	r := *f.m.Requests[i]
	r.ID, r.Resources = id, r.Resources.Clone()
	for k, q := range extra {
		r.Resources[k] = q
	}
	return &r
}

// park inserts r, which no live offer can host, and runs the warm clear
// that parks it.
func (f *parkFixture) park(r *bidding.Request) {
	f.t.Helper()
	if !f.b.InsertRequest(r) {
		f.t.Fatalf("%s refused", r.ID)
	}
	f.preview("warm", nil, nil)
	f.mustPark(r.ID)
}

// host copies the first market offer that can host the market's i-th
// request, under id with extra quantities.
func (f *parkFixture) host(i int, id bidding.OrderID, extra resource.Vector) *bidding.Offer {
	f.t.Helper()
	for _, o := range f.m.Offers {
		if match.Feasible(f.m.Requests[i], o) {
			c := *o
			c.ID, c.Resources = id, o.Resources.Clone()
			for k, q := range extra {
				c.Resources[k] = q
			}
			return &c
		}
	}
	f.t.Fatalf("no market offer hosts request %d", i)
	return nil
}

func (f *parkFixture) mustPark(id bidding.OrderID) {
	f.t.Helper()
	if e := f.b.reqByID[id]; e == nil || e.dirty || len(e.best) > 0 {
		f.t.Fatalf("%s is not parked", id)
	}
}

// run encodes auction.Run's allocation over the given orders.
func (f *parkFixture) run(tag string, reqs []*bidding.Request, offs []*bidding.Offer) []byte {
	cfg := f.b.cfg
	cfg.Evidence, cfg.Obs = []byte(tag), nil
	return f.encode(auction.Run(reqs, offs, cfg))
}

func (f *parkFixture) encode(out *auction.Outcome) []byte {
	f.t.Helper()
	enc, err := ledger.EncodeAllocation(out)
	if err != nil {
		f.t.Fatal(err)
	}
	return enc
}

// equalsRun fails unless out's allocation is auction.Run's over the
// orders the clear read.
func (f *parkFixture) equalsRun(tag string, out *auction.Outcome, reqs []*bidding.Request, offs []*bidding.Offer) {
	f.t.Helper()
	if !bytes.Equal(f.encode(out), f.run(tag, reqs, offs)) {
		f.t.Fatalf("%s: the book's allocation differs from auction.Run over its %d live requests and %d offers", tag, len(reqs), len(offs))
	}
}

// preview previews a block and checks it against auction.Run.
func (f *parkFixture) preview(tag string, reqs []*bidding.Request, offs []*bidding.Offer) *auction.Outcome {
	f.t.Helper()
	out, liveR, liveO := f.b.Preview(reqs, offs, []byte(tag))
	f.equalsRun(tag, out, liveR, liveO)
	return out
}

// apply applies an empty block and checks it against auction.Run.
func (f *parkFixture) apply(tag string) {
	f.t.Helper()
	reqs, offs := f.b.LiveRequests(), f.b.LiveOffers()
	f.equalsRun(tag, f.b.Apply(nil, nil, []byte(tag)), reqs, offs)
}

// work runs step and returns the book's rescans and full rescores and
// the pre-pass's ν evaluations during it.
func (f *parkFixture) work(step func()) (rescored, full, nu int) {
	st, nu0 := f.b.Stats(), f.b.cfg.Obs.NuEvaluations.Value()
	step()
	after := f.b.Stats()
	return after.Rescored - st.Rescored, after.FullRescores - st.FullRescores, int(f.b.cfg.Obs.NuEvaluations.Value() - nu0)
}

// TestParkedRequestsClearLikeRun: a clean request whose last scan found
// no offer is parked — neither indexed nor rescanned — yet every clear
// must encode the allocation auction.Run computes over the live set,
// and a parked request must wake exactly when its best set can change.
func TestParkedRequestsClearLikeRun(t *testing.T) {
	t.Run("parked request holds a column maximum", func(t *testing.T) {
		// Large offers, and small cheap ones the size of every request:
		// under the offers' own cpu maximum a small offer scores within
		// the quality band of a large one, under the parked request's
		// it does not.
		m := &workload.Market{}
		for i := range 4 {
			q, bid := 1.0, 4.0
			if i%2 == 1 {
				q, bid = 0.45, 1
			}
			m.Offers = append(m.Offers, &bidding.Offer{ID: bidding.OrderID(fmt.Sprintf("o%d", i)), Provider: bidding.ParticipantID(fmt.Sprintf("p%d", i)),
				Submitted: int64(i), Resources: resource.Vector{resource.CPU: q}, End: 10, Bid: bid + float64(i)/10})
		}
		var fresh []*bidding.Request
		for i := range 8 {
			fresh = append(fresh, &bidding.Request{ID: bidding.OrderID(fmt.Sprintf("r%d", i)), Client: bidding.ParticipantID(fmt.Sprintf("c%d", i)),
				Submitted: int64(i), Resources: resource.Vector{resource.CPU: 0.45}, End: 10, Duration: 10, Bid: 10 + float64(i)})
		}
		f := newParkFixture(t, m)
		f.park(&bidding.Request{ID: "big", Client: "cb", Resources: resource.Vector{resource.CPU: 1e4}, End: 10, Duration: 10, Bid: 1})
		if got := f.b.prevMax[resource.CPU]; got != 1e4 {
			t.Fatalf("the block's cpu maximum is %g, not the parked request's 1e4", got)
		}
		var out *auction.Outcome
		rescored, full, _ := f.work(func() { out = f.preview("arrivals", fresh, nil) })
		if rescored != len(fresh) || full != 0 {
			t.Fatalf("%d rescans, %d full rescores: want the %d arrivals only", rescored, full, len(fresh))
		}
		// The parked maximum must matter: without it the clear differs.
		if bytes.Equal(f.encode(out), f.run("arrivals", fresh, m.Offers)) {
			t.Fatal("the parked request's cpu maximum does not move the outcome: the case tests nothing")
		}
	})

	t.Run("kind carried only by parked requests", func(t *testing.T) {
		f := newParkFixture(t, nil)
		f.park(f.variant(3, "fpga", resource.Vector{"fpga": 2}))
		// Nothing moved: every cluster's pre-pass comes from the cache,
		// which is read only under the kind table it was laid out over.
		rescored, full, nu := f.work(func() { f.preview("steady", nil, nil) })
		if rescored != 0 || full != 0 || nu != 0 {
			t.Fatalf("%d rescans, %d full rescores, %d ν evaluations on an unchanged book: want none", rescored, full, nu)
		}
		f.mustPark("fpga")
	})

	t.Run("woken by a feasible fresh offer", func(t *testing.T) {
		f := newParkFixture(t, nil)
		f.park(f.variant(7, "gpu", resource.Vector{resource.GPU: 1}))
		f.b.InsertOffer(f.host(7, "gpu-host", resource.Vector{resource.GPU: 1}))
		_, full, _ := f.work(func() { f.preview("woken", nil, nil) })
		if e := f.b.reqByID["gpu"]; len(e.best) == 0 || full != 0 {
			t.Fatalf("gpu request's best set %v, %d full rescores: the offer alone must wake it", e.best, full)
		}
		f.apply("commit")
	})

	t.Run("woken by a scale move", func(t *testing.T) {
		f := newParkFixture(t, nil)
		f.park(f.variant(7, "gpu", resource.Vector{resource.GPU: 1}))
		f.b.InsertOffer(f.host(7, "wide-host", resource.Vector{resource.CPU: 1e4}))
		live := len(f.b.LiveRequests())
		rescored, full, _ := f.work(func() { f.preview("moved", nil, nil) })
		if rescored != live || full != 1 {
			t.Fatalf("%d rescans of %d live requests, %d full rescores: a scale move must rescan all", rescored, live, full)
		}
		f.mustPark("gpu")
		f.apply("commit")
	})

	t.Run("woken by a rolled-back Preview, then Apply", func(t *testing.T) {
		f := newParkFixture(t, nil)
		f.park(f.variant(7, "gpu", resource.Vector{resource.GPU: 1}))
		_, full, _ := f.work(func() {
			f.preview("priced", nil, []*bidding.Offer{f.host(7, "gpu-host", resource.Vector{resource.GPU: 1})})
		})
		if e := f.b.reqByID["gpu"]; len(e.best) == 0 || !e.dirty || full != 0 {
			t.Fatalf("gpu request's best set %v, dirty %v, %d full rescores: the Preview's offer alone must wake it, its rollback dirty it", e.best, e.dirty, full)
		}
		f.apply("block")
		f.mustPark("gpu")
	})
}
