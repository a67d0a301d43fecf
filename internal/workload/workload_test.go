package workload

import (
	"math"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/resource"
	"decloud/internal/trace"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 5, Requests: 30}
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.Requests) != len(b.Requests) || len(a.Offers) != len(b.Offers) {
		t.Fatal("nondeterministic sizes")
	}
	for i := range a.Requests {
		if a.Requests[i].Bid != b.Requests[i].Bid || !a.Requests[i].Resources.Equal(b.Requests[i].Resources) {
			t.Fatalf("request %d differs", i)
		}
	}
	for j := range a.Offers {
		if a.Offers[j].Bid != b.Offers[j].Bid {
			t.Fatalf("offer %d differs", j)
		}
	}
}

func TestGenerateDefaults(t *testing.T) {
	m := Generate(Config{Seed: 1, Requests: 30})
	if len(m.Requests) != 30 {
		t.Fatalf("requests = %d", len(m.Requests))
	}
	if len(m.Offers) != 10 { // Requests/3 rounded up
		t.Fatalf("default providers = %d, want 10", len(m.Offers))
	}
	for _, r := range m.Requests {
		if err := r.Validate(); err != nil {
			t.Fatalf("invalid request: %v", err)
		}
		if r.Bid != r.TrueValue {
			t.Fatal("bids must be truthful")
		}
		if r.Start < 0 || r.End > 6*3600 || r.End <= r.Start {
			t.Fatalf("request window outside default horizon: [%d, %d]", r.Start, r.End)
		}
	}
	for _, o := range m.Offers {
		if err := o.Validate(); err != nil {
			t.Fatalf("invalid offer: %v", err)
		}
		if o.Bid != o.TrueCost {
			t.Fatal("offers must be truthful")
		}
		// Offer shapes come from the M5 catalog: 2–16 cores, RAM = 4×cores.
		cpu := o.Resources[resource.CPU]
		if cpu < 2 || cpu > 16 || o.Resources[resource.RAM] != cpu*4 {
			t.Fatalf("offer shape not M5: %v", o.Resources)
		}
	}
}

func TestGenerateRequestShapes(t *testing.T) {
	m := Generate(Config{Seed: 2, Requests: 200})
	within := 0
	for _, r := range m.Requests {
		cpu := r.Resources[resource.CPU]
		if cpu <= 0 || cpu > 16 {
			t.Fatalf("request cpu out of range: %v", cpu)
		}
		if r.Duration <= 0 || r.Duration > r.End-r.Start {
			t.Fatalf("bad duration: %d", r.Duration)
		}
		if cpu <= 4 {
			within++
		}
	}
	// Google-trace shape: most requests are small fractions of a machine.
	if frac := float64(within) / float64(len(m.Requests)); frac < 0.6 {
		t.Fatalf("small-request fraction = %v", frac)
	}
}

func TestValuationRule(t *testing.T) {
	// Valuations must be positive and, for servable requests, anchored at
	// the best-match cost share (coefficient within [0.5, 2]).
	m := Generate(Config{Seed: 3, Requests: 60})
	positive := 0
	for _, r := range m.Requests {
		if r.TrueValue <= 0 {
			t.Fatalf("non-positive valuation for %s", r.ID)
		}
		positive++
	}
	if positive == 0 {
		t.Fatal("no valuations assigned")
	}
}

func TestGeneratedMarketTrades(t *testing.T) {
	// The whole point: generated markets must actually produce trades
	// through the mechanism.
	m := Generate(Config{Seed: 4, Requests: 100})
	out := auction.Run(m.Requests, m.Offers, auction.DefaultConfig())
	if len(out.Matches) == 0 {
		t.Fatal("generated market produced no trades")
	}
	if out.Welfare() <= 0 {
		t.Fatalf("welfare = %v", out.Welfare())
	}
}

func TestFlexibilityApplied(t *testing.T) {
	m := Generate(Config{Seed: 6, Requests: 10, Flexibility: 0.8})
	for _, r := range m.Requests {
		if r.Flexibility != 0.8 {
			t.Fatalf("flexibility not applied: %v", r.Flexibility)
		}
	}
}

func TestGenerateDivergentSimilarityMonotone(t *testing.T) {
	base := Config{Seed: 11, Requests: 300, Providers: 100}
	var prev float64 = 2
	for _, skew := range []float64{0, 0.3, 0.6, 0.9} {
		_, sim := GenerateDivergent(DivergentConfig{Config: base, Skew: skew})
		if sim > prev+0.05 {
			t.Fatalf("similarity should fall with skew: skew=%v sim=%v prev=%v", skew, sim, prev)
		}
		prev = sim
	}
	_, simLow := GenerateDivergent(DivergentConfig{Config: base, Skew: 0})
	_, simHigh := GenerateDivergent(DivergentConfig{Config: base, Skew: 0.9})
	if simLow < 0.9 {
		t.Fatalf("zero skew should be near-identical distributions: sim=%v", simLow)
	}
	if simHigh > simLow-0.1 {
		t.Fatalf("high skew should diverge: %v vs %v", simHigh, simLow)
	}
}

func TestGenerateDivergentValidOrders(t *testing.T) {
	m, sim := GenerateDivergent(DivergentConfig{
		Config: Config{Seed: 12, Requests: 50, Flexibility: 0.8},
		Skew:   0.5,
	})
	// Similarity is 1 − KLD: at most 1, and possibly negative for small
	// samples with genuinely divergent class histograms.
	if sim > 1 || math.IsNaN(sim) || math.IsInf(sim, 0) {
		t.Fatalf("similarity out of range: %v", sim)
	}
	for _, r := range m.Requests {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		if r.Flexibility != 0.8 {
			t.Fatal("flexibility lost")
		}
	}
	for _, o := range m.Offers {
		if err := o.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDivergentFlexibilityImprovesSatisfaction(t *testing.T) {
	// The core claim of Figures 5d–5e: under divergent supply/demand,
	// flexible requests achieve higher satisfaction than inflexible ones.
	cfgI := DivergentConfig{Config: Config{Seed: 13, Requests: 120, Providers: 60}, Skew: 0.7}
	mI, _ := GenerateDivergent(cfgI)
	outI := auction.Run(mI.Requests, mI.Offers, auction.DefaultConfig())

	cfgF := cfgI
	cfgF.Flexibility = 0.5
	mF, _ := GenerateDivergent(cfgF)
	outF := auction.Run(mF.Requests, mF.Offers, auction.DefaultConfig())

	si := outI.Satisfaction(len(mI.Requests))
	sf := outF.Satisfaction(len(mF.Requests))
	if sf < si {
		t.Fatalf("flexibility should not hurt satisfaction: flexible=%v inflexible=%v", sf, si)
	}
}

func TestGeoRadiusCreatesLocalMarkets(t *testing.T) {
	base := Config{Seed: 21, Requests: 120, Providers: 40}
	global := Generate(base)

	geo := base
	geo.GeoRadius = 0.2
	local := Generate(geo)
	for _, r := range local.Requests {
		if r.MaxDistance != 0.2 {
			t.Fatalf("locality not applied: %v", r.MaxDistance)
		}
	}
	outG := auction.Run(global.Requests, global.Offers, auction.DefaultConfig())
	outL := auction.Run(local.Requests, local.Offers, auction.DefaultConfig())
	if outL.Clusters == 0 || len(outL.Matches) == 0 {
		t.Fatal("local market should still trade")
	}
	// A tight radius costs satisfaction: fewer reachable machines.
	if outL.Satisfaction(len(local.Requests)) > outG.Satisfaction(len(global.Requests)) {
		t.Fatal("tight locality should not beat an unconstrained market")
	}
	// Every match respects the constraint.
	for _, m := range outL.Matches {
		if m.Request.Location.Distance(m.Offer.Location) > 0.2+1e-9 {
			t.Fatalf("match violates locality: %v away", m.Request.Location.Distance(m.Offer.Location))
		}
	}
}

func TestRequestsPerClientGrouping(t *testing.T) {
	m := Generate(Config{Seed: 8, Requests: 12, RequestsPerClient: 3})
	clients := map[string]int{}
	for _, r := range m.Requests {
		clients[string(r.Client)]++
	}
	if len(clients) != 4 {
		t.Fatalf("clients = %d, want 4", len(clients))
	}
	for c, n := range clients {
		if n != 3 {
			t.Fatalf("client %s has %d requests, want 3", c, n)
		}
	}
}

func TestGenerateFromTasks(t *testing.T) {
	tasks := []trace.Task{
		{CPU: 0.1, RAM: 0.05, Disk: 0.01, DurationSec: 600},
		{CPU: 0.5, RAM: 0.25, Disk: 0.02, DurationSec: 1200},
		{CPU: 0.02, RAM: 0.01, Disk: 0.005, DurationSec: 300},
	}
	m := GenerateFromTasks(Config{Seed: 9}, tasks)
	if len(m.Requests) != 3 {
		t.Fatalf("requests = %d, want one per task", len(m.Requests))
	}
	// First task: 0.1 × 16 cores = 1.6.
	if got := m.Requests[0].Resources[resource.CPU]; math.Abs(got-1.6) > 1e-9 {
		t.Fatalf("cpu = %v, want 1.6", got)
	}
	for _, r := range m.Requests {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.Offers) < 2 {
		t.Fatalf("providers defaulted to %d", len(m.Offers))
	}
	// Equivalence: Generate == GenerateFromTasks(generator samples).
	direct := Generate(Config{Seed: 14, Requests: 10})
	viaTasks := GenerateFromTasks(Config{Seed: 14}, trace.NewGenerator(15).SampleN(10))
	if len(direct.Requests) != len(viaTasks.Requests) {
		t.Fatal("size mismatch")
	}
	for i := range direct.Requests {
		if !direct.Requests[i].Resources.Equal(viaTasks.Requests[i].Resources) {
			t.Fatalf("request %d differs between Generate and GenerateFromTasks", i)
		}
	}
}
