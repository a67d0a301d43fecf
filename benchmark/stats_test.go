package main

import (
	"math"
	"testing"

	"decloud/internal/loadgen"
	"decloud/internal/obs"
)

func sampleSet(vals ...float64) *samples {
	s := &samples{}
	for _, v := range vals {
		s.add(v)
	}
	return s
}

func TestPercentileIsAnOrderStatistic(t *testing.T) {
	s := sampleSet(5, 1, 4, 2, 3, 10, 9, 8, 7, 6)
	cases := []struct {
		q    float64
		want float64
	}{{0.50, 5}, {0.90, 9}, {0.99, 10}, {1.0, 10}, {0.01, 1}, {0.10, 1}, {0.11, 2}}
	for _, c := range cases {
		if got := s.percentile(c.q); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := s.median(); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := s.beyond(0.9); got != 1 {
		t.Errorf("beyond(0.9) = %d, want 1", got)
	}
	if got := (&samples{}).percentile(0.5); !math.IsNaN(got) {
		t.Errorf("empty percentile = %g, want NaN", got)
	}
}

// TestNoBucketArtifact is the ROADMAP item 1 regression: two different
// latency populations that fall inside one bucket of
// loadgen.DefaultLatencyBounds read the same p50/p99 from the bucketed
// histogram (it interpolates inside the bucket), and must read different
// ones from exact samples.
func TestNoBucketArtifact(t *testing.T) {
	fast := []float64{2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9, 3.0}
	slow := []float64{4.0, 4.1, 4.2, 4.3, 4.4, 4.5, 4.6, 4.7, 4.8, 4.9} // same (2, 5] bucket

	reg := obs.NewRegistry()
	hf := reg.Histogram("fast_seconds", "", loadgen.DefaultLatencyBounds)
	hs := reg.Histogram("slow_seconds", "", loadgen.DefaultLatencyBounds)
	ef, es := &samples{}, &samples{}
	for i := range fast {
		hf.Observe(fast[i])
		hs.Observe(slow[i])
		ef.add(fast[i])
		es.add(slow[i])
	}
	for _, q := range []float64{0.50, 0.99} {
		if hf.Snapshot().Quantile(q) != hs.Snapshot().Quantile(q) {
			t.Fatalf("the bucketed histogram tells the two populations apart at q=%g: the artifact this test guards against is gone, rewrite the test", q)
		}
		if ef.percentile(q) == es.percentile(q) {
			t.Errorf("exact samples read the same q=%g (%g) for two different populations", q, ef.percentile(q))
		}
	}
	if ef.median() == es.median() {
		t.Errorf("exact samples read the same median for two different populations")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) returns (default exclusive method), the
// function the benchmark driver computes its spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 4}, 1, 2, 4},
		{[]float64{10, 20}, 7.5, 15, 22.5}, // the exclusive method extrapolates
		{[]float64{0.2061, 0.2162, 0.2257, 0.2385, 0.2388, 0.2748}, 0.213675, 0.2321, 0.2478},
	}
	for _, c := range cases {
		q1, q2, q3 := sampleSet(c.vals...).quartiles()
		for i, pair := range [][2]float64{{q1, c.q1}, {q2, c.q2}, {q3, c.q3}} {
			if math.Abs(pair[0]-pair[1]) > 1e-9 {
				t.Errorf("quartiles(%v)[%d] = %g, want %g", c.vals, i, pair[0], pair[1])
			}
		}
	}
	if got := sampleSet(1, 2, 3, 4, 5, 6, 7, 8, 9, 10).spread(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("spread = %g, want 1", got) // (8.25 − 2.75) / 5.5
	}
}

func TestVerdict(t *testing.T) {
	tight := func(center float64) *samples {
		return sampleSet(center*0.99, center*0.995, center, center*1.005, center*1.01)
	}
	wide := func(center float64) *samples {
		return sampleSet(center*0.7, center*0.85, center, center*1.15, center*1.3)
	}
	cases := []struct {
		name   string
		a, b   *samples
		better string
		bound  float64
		want   string
	}{
		{"same", tight(1), tight(1.01), "lower", 0.10, "ok"},
		{"slower", tight(1), tight(1.2), "lower", 0.10, "regressed"},
		{"faster", tight(1), tight(0.8), "lower", 0.10, "ok"},
		{"throughput down", tight(1000), tight(800), "higher", 0.10, "regressed"},
		{"throughput up", tight(1000), tight(1200), "higher", 0.10, "ok"},
		{"too noisy to tell", wide(1), wide(1.02), "lower", 0.10, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestQuietRoundsKeepsTheFastestQuarterAtEachPosition: a cycle of two
// positions (fast, slow) ran eight times, and the host doubled the time
// of five whole cycles. The quiet rounds are two of each position, none
// of them a disturbed one, so their mean is the undisturbed cycle's.
func TestQuietRoundsKeepsTheFastestQuarterAtEachPosition(t *testing.T) {
	vals := []float64{2.02, 6.06, 1.00, 3.00, 2.04, 6.08, 2.00, 6.00, 1.02, 3.02, 2.06, 6.02, 1.01, 3.01, 2.08, 6.04}
	var kept samples
	at := make(map[int]int)
	for _, i := range quietRounds(vals, 2) {
		kept.add(vals[i])
		at[i%2]++
	}
	if at[0] != 2 || at[1] != 2 {
		t.Fatalf("kept %d and %d rounds of the two positions, want 2 and 2", at[0], at[1])
	}
	if got := kept.max(); got != 3.01 {
		t.Errorf("slowest kept round = %g, want 3.01: a disturbed round was kept", got)
	}
	if got, want := kept.mean(), (1.00+1.01+3.00+3.01)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean of the quiet rounds = %g, want %g", got, want)
	}
	// The median over all rounds mixed lands on disturbed ones.
	if got := sampleSet(vals...).median(); got < 2 {
		t.Errorf("mixed median = %g, expected a disturbed round", got)
	}
	if got := quietRounds([]float64{4, 2, 3, 5, 1}, 1); len(got) != 2 || got[0] != 4 || got[1] != 1 {
		t.Errorf("quietRounds of five rounds at one position = %v, want the indices [4 1] of 1 and 2", got)
	}
}

// TestQuietTimings: the three timing metrics of closed rounds come from
// the quiet ones — here rounds 0 and 2 of eight — and the p50 is an exact
// sample weighted by the orders that waited it.
func TestQuietTimings(t *testing.T) {
	var tl tally
	tl.closedRound(0, 1.0, 0.9, 10)
	tl.closedRound(0, 2.0, 1.9, 10) // disturbed, as are all below but one
	tl.closedRound(0, 1.2, 1.1, 30)
	for i := 0; i < 5; i++ {
		tl.closedRound(0, 2.4, 2.3, 30)
	}
	tm := tl.quietTimings(tl.closed)
	if tm.rounds != 2 || math.Abs(tm.roundS-1.1) > 1e-12 {
		t.Errorf("round_s = %g over %d rounds, want 1.1 over 2", tm.roundS, tm.rounds)
	}
	if want := 40 / 2.2; math.Abs(tm.ordersPerS-want) > 1e-9 {
		t.Errorf("orders_per_s = %g, want %g", tm.ordersPerS, want)
	}
	if tm.commitP50 != 1.1 {
		t.Errorf("commit_p50_s = %g, want 1.1 (30 of the 40 quiet orders waited it)", tm.commitP50)
	}
	if tl.committed != 200 || tl.latency.count() != 200 || tl.rounds() != 8 {
		t.Errorf("every round must still count: committed %d, samples %d, rounds %d", tl.committed, tl.latency.count(), tl.rounds())
	}
}
