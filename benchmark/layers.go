package main

import (
	"strings"
)

// layerMetric declares one per-layer metric: how the observations of a
// traced run are folded into the reported value.
type layerMetric struct {
	Name string
	Unit string
	// Fold: "median" of the per-round (or per-block) observations for
	// *_s timings, "mean" for counts and sizes, "ratio" for per-order
	// means reported as Σnumerator ÷ Σdenominator, "set" for a value
	// computed once.
	Fold string
}

// perLayer lists every per-layer metric, in the order of the issue's
// table. BENCHMARK.json carries the same names with the end-to-end
// metric each is predicted to move.
var perLayer = []layerMetric{
	{"workload.generate_s", "s", "median"},
	{"sealed.seal_us_per_order", "us", "ratio"},
	{"sealed.verify_sig_us_per_bid", "us", "ratio"},
	{"sealed.reveal_build_s", "s", "median"},
	{"sealed.reveal_verify_us_per_bid", "us", "ratio"},
	{"sealed.open_us_per_bid", "us", "ratio"},
	{"bidding.decode_us_per_order", "us", "ratio"},
	{"p2p.submit_s", "s", "median"},
	{"p2p.publish_us_per_order", "us", "ratio"},
	{"p2p.reveal_intake_s", "s", "median"},
	{"p2p.vote_wait_s", "s", "median"},
	{"p2p.reveal_frames", "count", "mean"},
	{"p2p.block_frame_bytes", "bytes", "mean"},
	{"p2p.bid_frame_bytes_per_order", "bytes", "ratio"},
	{"p2p.block_marshal_s", "s", "median"},
	{"p2p.block_unmarshal_s", "s", "median"},
	{"miner.assemble_s", "s", "median"},
	{"miner.decrypt_s", "s", "median"},
	{"miner.unrevealed", "count", "mean"},
	{"miner.rejected", "count", "mean"},
	{"miner.verify_block_s", "s", "median"},
	{"ledger.mine_s", "s", "median"},
	{"ledger.pow_nonce", "count", "mean"},
	{"ledger.encode_alloc_s", "s", "median"},
	{"ledger.alloc_bytes", "bytes", "mean"},
	{"ledger.validate_s", "s", "median"},
	{"ledger.append_s", "s", "median"},
	{"ledger.save_s", "s", "median"},
	{"match.index_s", "s", "median"},
	{"match.topk_scans", "count", "mean"},
	{"cluster.build_s", "s", "median"},
	{"cluster.count", "count", "mean"},
	{"auction.prepared_s", "s", "median"},
	{"auction.prepass_s", "s", "median"},
	{"auction.auctions_s", "s", "median"},
	{"auction.mini_auctions", "count", "mean"},
	{"auction.run_s", "s", "median"},
	{"auction.allocs_per_order", "count", "ratio"},
	{"auction.reduced_frac", "ratio", "ratio"},
	{"auction.welfare_ratio", "ratio", "ratio"},
	{"audit.outcome_s", "s", "median"},
	{"book.insert_us_per_order", "us", "ratio"},
	{"book.cancel_us_per_order", "us", "ratio"},
	{"book.expire_s", "s", "median"},
	{"book.apply_s", "s", "median"},
	{"book.live_orders", "count", "mean"},
	{"book.rescored_per_block", "count", "mean"},
	{"book.reuse_ratio", "ratio", "ratio"},
	{"contract.settle_s", "s", "median"},
	{"loadgen.late_p99_s", "s", "set"},
	{"loadgen.pickup_late_p99_s", "s", "set"},
	{"loadgen.achieved_rate", "1/s", "set"},
	{"trace.overhead_frac", "ratio", "set"},
	// Two of the nine end-to-end metrics cannot carry a relative bound and
	// are reported here, unbounded (see ungated in main.go).
	{"failed_frac", "ratio", "set"},
	{"commit_p99_s", "s", "set"},
}

// layerStats collects the observations behind the per-layer metrics.
type layerStats struct {
	obs      map[string]*samples
	num, den map[string]float64
	fixed    map[string]float64
}

func newLayerStats() *layerStats {
	return &layerStats{
		obs: make(map[string]*samples),
		num: make(map[string]float64), den: make(map[string]float64),
		fixed: make(map[string]float64),
	}
}

// observe adds one per-round (or per-block) observation.
func (l *layerStats) observe(name string, v float64) {
	s := l.obs[name]
	if s == nil {
		s = &samples{}
		l.obs[name] = s
	}
	s.add(v)
}

// ratio accumulates a numerator and a denominator.
func (l *layerStats) ratio(name string, num, den float64) {
	l.num[name] += num
	l.den[name] += den
}

// perCall accumulates a folded span's busy time as µs per call.
func (l *layerStats) perCall(name string, f *fold) {
	l.ratio(name, float64(f.busy.Nanoseconds())/1e3, float64(f.count))
}

func (l *layerStats) set(name string, v float64) { l.fixed[name] = v }

// metrics returns every declared per-layer metric; one the workload
// never exercised reads 0 (its layer did no work there).
func (l *layerStats) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		var v float64
		switch m.Fold {
		case "median":
			if s := l.obs[m.Name]; s != nil {
				v = s.median()
			}
		case "mean":
			if s := l.obs[m.Name]; s != nil {
				v = s.mean()
			}
		case "ratio":
			if l.den[m.Name] != 0 {
				v = l.num[m.Name] / l.den[m.Name]
			}
		case "set":
			v = l.fixed[m.Name]
		}
		out[m.Name] = metric{v, m.Unit}
	}
	return out
}

// renderBudget prints where a traced round's wall time went (spans under
// "round") and, for the ledger workloads, what one block costs when it
// is pushed through the layers again single-threaded (spans under
// "autopsy"), each as self time and share of the traced round_s.
func renderBudget(rec *recorder, workload string) string {
	var sb strings.Builder
	rows, rootS, rounds := rec.budget("round")
	if rounds > 0 {
		printBudget(&sb, workload+": per-layer budget of the committed round", rows, "round", rootS, rounds)
	}
	rows, rootS, rounds = rec.budget("autopsy")
	if rounds > 0 {
		printBudget(&sb, workload+": block autopsy (single-threaded re-execution, not part of round_s)", rows, "autopsy", rootS, rounds)
	}
	return sb.String()
}
