// Package paralleltest is the determinism-equivalence harness for the
// mechanism's parallel execution mode. DeCloud's verification protocol
// (Section V) has every miner re-execute a block's allocation and
// compare it byte for byte against the proposed body — so the mechanism
// must produce identical Outcomes on every machine, whatever
// Config.Workers is in effect. This package runs the same block
// sequentially and at a sweep of worker counts and asserts the
// canonically marshaled Outcomes are byte-identical; any scheduling
// leak into the allocation (iteration-order dependence, float
// accumulation reordering, lottery-label drift) fails loudly here
// before it can fork a chain.
package paralleltest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/bidding"
)

// WorkerCounts returns the canonical sweep {2, 4, GOMAXPROCS},
// deduplicated and sorted. The sequential baseline (workers = 0) is
// always run by Check and need not be listed.
func WorkerCounts() []int {
	counts := map[int]bool{2: true, 4: true, runtime.GOMAXPROCS(0): true}
	out := make([]int, 0, len(counts))
	for w := range counts {
		if w > 1 {
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// MarshalOutcome renders an Outcome to canonical bytes for comparison:
// encoding/json sorts map keys (Payments, Revenues, resource vectors)
// and Matches/Reduced/Lottery slices carry the mechanism's
// deterministic order, so equal outcomes marshal to equal bytes and
// vice versa.
func MarshalOutcome(out *auction.Outcome) ([]byte, error) {
	return json.Marshal(out)
}

// Check runs the block once sequentially (workers = 0) and once per
// entry of workers, returning an error describing the first divergence
// from the sequential baseline. A nil workers slice means
// WorkerCounts().
func Check(requests []*bidding.Request, offers []*bidding.Offer, cfg auction.Config, workers []int) error {
	if workers == nil {
		workers = WorkerCounts()
	}
	seq := cfg
	seq.Workers = 0
	want, err := MarshalOutcome(auction.Run(requests, offers, seq))
	if err != nil {
		return fmt.Errorf("paralleltest: marshal sequential outcome: %w", err)
	}
	for _, w := range workers {
		cur := cfg
		cur.Workers = w
		got, err := MarshalOutcome(auction.Run(requests, offers, cur))
		if err != nil {
			return fmt.Errorf("paralleltest: marshal workers=%d outcome: %w", w, err)
		}
		if !bytes.Equal(want, got) {
			return fmt.Errorf("paralleltest: workers=%d diverges from sequential: %s", w, diffSummary(want, got))
		}
	}
	return nil
}

// Assert is Check wired to a testing.TB.
func Assert(t testing.TB, requests []*bidding.Request, offers []*bidding.Offer, cfg auction.Config, workers []int) {
	t.Helper()
	if err := Check(requests, offers, cfg, workers); err != nil {
		t.Fatal(err)
	}
}

// CheckIndexedVsNaive proves the indexed matching engine innocuous: the
// block is executed once through the brute-force reference pipeline
// (auction.RunReference — per-pair Feasible/Quality scans, map-walking
// economics, no index) and then through the production indexed engine,
// sequentially and at every given worker count. Any divergence — a
// pruned pair the reference accepts, a float that drifted through dense
// re-association, a tie broken differently by top-k selection — shows up
// as a byte difference in the marshaled Outcome. A nil workers slice
// means WorkerCounts().
func CheckIndexedVsNaive(requests []*bidding.Request, offers []*bidding.Offer, cfg auction.Config, workers []int) error {
	if workers == nil {
		workers = WorkerCounts()
	}
	ref := cfg
	ref.Workers = 0
	want, err := MarshalOutcome(auction.RunReference(requests, offers, ref))
	if err != nil {
		return fmt.Errorf("paralleltest: marshal reference outcome: %w", err)
	}
	for _, w := range append([]int{0}, workers...) {
		cur := cfg
		cur.Workers = w
		got, err := MarshalOutcome(auction.Run(requests, offers, cur))
		if err != nil {
			return fmt.Errorf("paralleltest: marshal indexed workers=%d outcome: %w", w, err)
		}
		if !bytes.Equal(want, got) {
			return fmt.Errorf("paralleltest: indexed engine (workers=%d) diverges from naive reference: %s", w, diffSummary(want, got))
		}
	}
	return nil
}

// AssertIndexedVsNaive is CheckIndexedVsNaive wired to a testing.TB.
func AssertIndexedVsNaive(t testing.TB, requests []*bidding.Request, offers []*bidding.Offer, cfg auction.Config, workers []int) {
	t.Helper()
	if err := CheckIndexedVsNaive(requests, offers, cfg, workers); err != nil {
		t.Fatal(err)
	}
}

// diffSummary locates the first differing byte and quotes a small
// window around it from both sides — enough to identify the drifting
// field without dumping two full outcomes.
func diffSummary(want, got []byte) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	window := func(b []byte) string {
		lo, hi := i-60, i+60
		if lo < 0 {
			lo = 0
		}
		if hi > len(b) {
			hi = len(b)
		}
		return string(b[lo:hi])
	}
	return fmt.Sprintf("lengths %d vs %d, first diff at byte %d:\n  sequential: …%s…\n  parallel:   …%s…",
		len(want), len(got), i, window(want), window(got))
}
