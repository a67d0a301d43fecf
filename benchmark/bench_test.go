package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallRun runs one workload at a twentieth of its size for the minimum
// number of rounds (Seconds 0), so tier-1 keeps the benchmark compiling
// and running against the internal APIs it calls. With Seconds 0 the
// number of rounds is fixed, which the determinism test relies on.
func smallRun(t *testing.T, name string, seed int64, traced bool) *runResult {
	t.Helper()
	res, err := runWorkload(name, params{Seed: seed, Seconds: 0, Scale: 0.05, Traced: traced, Setups: 1, OutDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, c := range res.Checks {
		if !c.OK {
			t.Errorf("%s: check %s failed: %s", name, c.Name, c.Detail)
		}
	}
	if res.Invalid != "" {
		// A starved test runner is not a defect of the code under test;
		// the command itself exits non-zero on it.
		t.Logf("%s: run reported invalid: %s", name, res.Invalid)
	}
	return res
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and traced
// and asserts the nine end-to-end metrics, every per-layer metric, the
// checks and the span file are there.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadOrder {
		name := name
		t.Run(name, func(t *testing.T) {
			res := smallRun(t, name, 1, false)
			if len(res.Checks) == 0 {
				t.Errorf("no checks ran")
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, k := range endToEnd {
				m, ok := res.EndToEnd[k]
				if !ok || m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end metric %s = %+v (present %v)", k, m, ok)
				}
				// At a twentieth of the size a block may match nothing.
				if k != "failed_frac" && k != "matched_frac" && m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, must be positive", k, m.Value)
				}
			}
			if res.EndToEnd["failed_frac"].Value != 0 {
				t.Errorf("failed_frac = %g", res.EndToEnd["failed_frac"].Value)
			}

			var out bytes.Buffer
			printResult(&out, res)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", last)
			}

			traced := smallRun(t, name, 1, true)
			for _, lm := range perLayer {
				m, ok := traced.PerLayer[lm.Name]
				if !ok || m.Unit != lm.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer metric %s = %+v (present %v)", lm.Name, m, ok)
				}
			}
			if fi, err := os.Stat(traced.TraceFile); err != nil || fi.Size() == 0 {
				t.Errorf("span file %q: %v", traced.TraceFile, err)
			}
			if !strings.Contains(traced.budget, "per-layer budget") {
				t.Errorf("no budget table:\n%s", traced.budget)
			}
		})
	}
}

// TestSeededDeterminism: the same (workload, seed) gives the same order
// IDs and bid digests and the same exact counts; another seed gives
// other inputs. Identities, temporary keys and envelope nonces all come
// from seeded readers, never from crypto/rand.
func TestSeededDeterminism(t *testing.T) {
	// Counts that must repeat exactly. ledger.alloc_bytes is left out
	// where the block evidence is not a function of the seed: the TCP
	// producer stamps wall-clock time into the preamble and the
	// in-process network races three miners for the proof-of-work, and
	// the evidence seeds the lottery.
	exact := map[string][]string{
		"round_burst":  {"cluster.count", "auction.mini_auctions", "p2p.bid_frame_bytes_per_order"},
		"paced_book":   nil, // which bids share a block depends on arrival timing
		"clear_dense":  {"cluster.count", "auction.mini_auctions", "ledger.alloc_bytes"},
		"book_churn":   {"cluster.count", "auction.mini_auctions", "ledger.alloc_bytes"},
		"ledger_round": {"cluster.count", "auction.mini_auctions", "p2p.bid_frame_bytes_per_order"},
	}
	for _, name := range workloadOrder {
		name := name
		t.Run(name, func(t *testing.T) {
			a, b, other := smallRun(t, name, 7, true), smallRun(t, name, 7, true), smallRun(t, name, 8, true)
			if a.Fingerprint != b.Fingerprint {
				t.Errorf("seed 7 twice: fingerprints %s and %s", a.Fingerprint, b.Fingerprint)
			}
			if a.Fingerprint == other.Fingerprint {
				t.Errorf("seeds 7 and 8 share the fingerprint %s", a.Fingerprint)
			}
			if a.Attempted != b.Attempted {
				t.Errorf("seed 7 twice: attempted %d and %d", a.Attempted, b.Attempted)
			}
			for _, k := range exact[name] {
				if a.PerLayer[k].Value != b.PerLayer[k].Value {
					t.Errorf("seed 7 twice: %s = %g and %g", k, a.PerLayer[k].Value, b.PerLayer[k].Value)
				}
				if a.PerLayer[k].Value == 0 {
					t.Errorf("%s = 0: the count was never taken", k)
				}
			}
		})
	}
}

// TestBenchmarkJSONNamesTheProgramsMetrics keeps BENCHMARK.json and the
// program in step: same workloads, same end-to-end metrics (failed_frac
// is always 0, so it is listed per layer), same per-layer metrics.
func TestBenchmarkJSONNamesTheProgramsMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadOrder, ",") {
		t.Errorf("workloads %v, program has %v", names, workloadOrder)
	}
	res := smallRun(t, "clear_dense", 1, false)
	want := map[string]string{}
	for _, k := range endToEnd {
		if _, skip := ungated[k]; !skip {
			want[k] = res.EndToEnd[k].Unit
		}
	}
	for _, m := range spec.EndToEnd {
		if unit, ok := want[m.Name]; !ok || unit != m.Unit {
			t.Errorf("end_to_end %s (%s): program reports unit %q (known %v)", m.Name, m.Unit, unit, ok)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
		delete(want, m.Name)
	}
	for k := range want {
		t.Errorf("end-to-end metric %s is missing from BENCHMARK.json", k)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("per_layer has %d metrics, program has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit) {
			t.Errorf("per_layer[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}

// TestCompare drives -compare end to end over two written result files.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	// Synthetic sets: every metric steady, only round_s differs.
	set := func(roundS float64) []*runResult {
		var rs []*runResult
		for i := 0; i < 5; i++ {
			wobble := 1 + 0.002*float64(i)
			r := &runResult{Workload: "clear_dense", Seed: int64(i + 1), EndToEnd: map[string]metric{}}
			for _, k := range endToEnd {
				r.EndToEnd[k] = metric{wobble, "x"}
			}
			r.EndToEnd["round_s"] = metric{roundS * wobble, "s"}
			r.EndToEnd["failed_frac"] = metric{0, "ratio"}
			rs = append(rs, r)
		}
		return rs
	}
	a, b, slow := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "slow.json")
	for path, rs := range map[string][]*runResult{a: set(1.0), b: set(1.01), slow: set(1.5)} {
		if err := writeResults(path, rs); err != nil {
			t.Fatal(err)
		}
	}
	bounds := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if code := compareFiles(&out, a, b, bounds); code != 0 {
		t.Errorf("a vs b: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, a, slow, bounds); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a vs slow: exit %d\n%s", code, out.String())
	}
}
