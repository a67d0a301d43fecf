package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // negative deltas are ignored: counters only go up
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
	if got := r.CounterValue("test_total"); got != 5 {
		t.Fatalf("CounterValue = %d, want 5", got)
	}
	if got := r.CounterValue("absent_total"); got != 0 {
		t.Fatalf("CounterValue(absent) = %d, want 0", got)
	}
	// Same name returns the same counter.
	if r.Counter("test_total", "a counter") != c {
		t.Fatal("second lookup returned a different counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("Value() = %v, want 1.5", got)
	}
	if got := r.GaugeValue("test_gauge"); got != 1.5 {
		t.Fatalf("GaugeValue = %v, want 1.5", got)
	}
	if got := r.GaugeValue("absent"); got != 0 {
		t.Fatalf("GaugeValue(absent) = %v, want 0", got)
	}
}

// TestHistogramBucketBoundaries pins the le semantics: an observation
// exactly at a bound lands in that bound's bucket (≤), and anything
// above the last bound lands only in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "a histogram", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4, 4.5, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Cumulative: ≤1 → {0.5, 1} = 2; ≤2 → +{1.0000001, 2} = 4;
	// ≤4 → +{4} = 5; +Inf → +{4.5, 100} = 7.
	want := []int64{2, 4, 5, 7}
	if len(s.Buckets) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(s.Buckets), len(want))
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Buckets[i], want[i], s.Buckets)
		}
	}
	if s.Count != 7 {
		t.Fatalf("Count = %d, want 7", s.Count)
	}
	if math.Abs(s.Sum-113.0000001) > 1e-6 {
		t.Fatalf("Sum = %v, want ≈113", s.Sum)
	}
	if s.Buckets[len(s.Buckets)-1] != s.Count {
		t.Fatalf("+Inf bucket %d != count %d", s.Buckets[len(s.Buckets)-1], s.Count)
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "a histogram", nil)
	h.Observe(0.003)
	s := h.Snapshot()
	if len(s.Bounds) != len(DefBuckets) {
		t.Fatalf("got %d bounds, want the %d defaults", len(s.Bounds), len(DefBuckets))
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-ascending bounds")
		}
	}()
	NewRegistry().Histogram("bad_hist", "", []float64{1, 1})
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_metric", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for kind clash")
		}
	}()
	r.Gauge("test_metric", "")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	for _, name := range []string{"", "0leading", "has space", "dash-ed", "ünicode"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q: expected panic", name)
				}
			}()
			NewRegistry().Counter(name, "")
		}()
	}
}

// TestNilSafety: a nil registry hands out nil metrics and every method
// on them is a no-op — the "observability off" path.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil metrics")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if r.CounterValue("x") != 0 || r.GaugeValue("x") != 0 {
		t.Fatal("nil registry reads must be zero")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry WritePrometheus: err=%v len=%d", err, buf.Len())
	}
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil registry WriteJSON: %v", err)
	}
	if NewMechanismMetrics(nil) != nil || NewMinerMetrics(nil) != nil ||
		NewNetMetrics(nil) != nil || NewSimMetrics(nil) != nil {
		t.Fatal("bundle constructors must return nil on a nil registry")
	}
}

// TestConcurrentWriters hammers one counter, gauge, and histogram from
// many goroutines; run under -race this is the data-race guard, and the
// totals check that no increment is lost.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	g := r.Gauge("conc_gauge", "")
	h := r.Histogram("conc_hist", "", []float64{0.5})
	const workers = 8
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 2)) // alternates 0 and 1 across the bound
			}
		}(w)
	}
	// Concurrent readers must not race with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			var buf bytes.Buffer
			_ = r.WritePrometheus(&buf)
			_ = h.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Fatalf("gauge = %v, want %d", got, workers*per)
	}
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*per)
	}
	if s.Buckets[0] != workers*per/2 {
		t.Fatalf("≤0.5 bucket = %d, want %d", s.Buckets[0], workers*per/2)
	}
}

// TestWritePrometheusGolden pins the exact exposition bytes for a small
// registry — name-sorted families, HELP/TYPE lines, cumulative buckets.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_count_total", "c help")
	c.Add(3)
	g := r.Gauge("test_gauge", "g help")
	g.Set(2.5)
	h := r.Histogram("test_hist", "h help", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP test_count_total c help",
		"# TYPE test_count_total counter",
		"test_count_total 3",
		"# HELP test_gauge g help",
		"# TYPE test_gauge gauge",
		"test_gauge 2.5",
		"# HELP test_hist h help",
		"# TYPE test_hist histogram",
		`test_hist_bucket{le="1"} 1`,
		`test_hist_bucket{le="2"} 2`,
		`test_hist_bucket{le="+Inf"} 3`,
		"test_hist_sum 5",
		"test_hist_count 3",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("j_total", "").Add(7)
	r.Gauge("j_gauge", "").Set(-1.25)
	h := r.Histogram("j_hist", "", []float64{1})
	h.Observe(0.5)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, buf.String())
	}
	if out["j_total"] != float64(7) {
		t.Fatalf("j_total = %v, want 7", out["j_total"])
	}
	if out["j_gauge"] != -1.25 {
		t.Fatalf("j_gauge = %v, want -1.25", out["j_gauge"])
	}
	hist, ok := out["j_hist"].(map[string]any)
	if !ok {
		t.Fatalf("j_hist = %T, want object", out["j_hist"])
	}
	if hist["count"] != float64(2) {
		t.Fatalf("j_hist.count = %v, want 2", hist["count"])
	}
	buckets := hist["buckets"].(map[string]any)
	if buckets["1"] != float64(1) || buckets["+Inf"] != float64(2) {
		t.Fatalf("j_hist.buckets = %v", buckets)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		1:            "1",
		0.25:         "0.25",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Errorf("formatFloat(NaN) = %q", got)
	}
}
