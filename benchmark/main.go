// Command benchmark is the benchmark of this repository: five workloads
// over the committed round, nine end-to-end metrics, and a per-layer
// budget measured from outside by timing calls into the layers' exported
// functions. See README.md in this directory.
//
//	go run ./benchmark -workload all -seed 1
//	go run ./benchmark -workload round_burst -trace 1
//	go run ./benchmark -compare a.json b.json
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"} for the (last) workload
// run: the end-to-end metrics of an untraced run, the per-layer metrics
// of a traced one. The exit code is non-zero when a check fails or the
// run is invalid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// workloads maps each workload name to its constructor.
var workloads = map[string]func(params, *runResult) scenario{
	"round_burst":  newRoundBurst,
	"paced_book":   newPacedBook,
	"clear_dense":  newClearDense,
	"book_churn":   newBookChurn,
	"ledger_round": newLedgerRound,
}

var workloadOrder = []string{"round_burst", "paced_book", "clear_dense", "book_churn", "ledger_round"}

// endToEnd lists the nine end-to-end metrics in reporting order.
var endToEnd = []string{
	"setup_s", "round_s", "orders_per_s", "commit_p50_s", "commit_p99_s",
	"within_limit_frac", "failed_frac", "matched_frac", "alloc_mb_per_round",
}

// ungated are the end-to-end metrics BENCHMARK.json cannot bound as a
// share of the parent's median, with the reason. They are printed with
// the other seven, listed under per_layer (which carries no bounds) and
// written to the -out file, where -compare still reads them.
var ungated = map[string]string{
	"failed_frac": "0 on every valid run; enforced absolutely: a run with a failed order fails " +
		"committed_equals_submitted and exits non-zero",
	"commit_p99_s": "with all orders of a round sharing one latency it is the slowest of 8–40 rounds; " +
		"its run-to-run spread measured 3–37 % of the median, on three workloads beyond the largest bound a metric may have (25 %)",
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of every input: market, identities, envelope nonces, arrival schedule")
	seconds := fs.Float64("seconds", 15, "how long the timed rounds of one run last")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, span file, budget table; 0 = end-to-end metrics")
	runs := fs.Int("runs", 1, "runs per workload; run i uses seed+i")
	scale := fs.Float64("scale", 1, "multiplies every workload size (the tests use 0.05)")
	out := fs.String("out", "", "write every run's full result to this JSON file (the input of -compare)")
	outDir := fs.String("outdir", "benchmark/out", "directory for the span files of traced runs")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
	bounds := fs.String("bounds", "BENCHMARK.json", "file the regression bounds are read from (-compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1), *bounds)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "-trace takes 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	} else if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (have %s, all)\n", *name, strings.Join(workloadOrder, ", "))
		return 2
	}

	code := 0
	var results []*runResult
	for _, n := range names {
		for i := 0; i < *runs; i++ {
			p := params{Seed: *seed + int64(i), Seconds: *seconds, Scale: *scale, Traced: *trace == 1, Setups: 3, OutDir: *outDir}
			res, err := runWorkload(n, p)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			results = append(results, res)
			printResult(os.Stdout, res)
			if !res.ok() {
				code = 1
			}
		}
	}
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

func writeResults(path string, results []*runResult) error {
	data, err := json.MarshalIndent(results, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints one run for people, then the contract's JSON line.
func printResult(w io.Writer, r *runResult) {
	var sb strings.Builder
	mode := "end-to-end"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(&sb, "== %s  seed=%d seconds=%g scale=%g %s  (nproc=%d GOMAXPROCS=%d %s, run took %.1f s)\n",
		r.Workload, r.Seed, r.Seconds, r.Scale, mode, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.WallS)
	keys := make([]string, 0, len(r.Params))
	for k := range r.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&sb, "  parameters:")
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%v", k, r.Params[k])
	}
	fmt.Fprintf(&sb, "\n  inputs fingerprint: %s\n", r.Fingerprint)

	fmt.Fprintf(&sb, "  end-to-end metrics\n")
	quiet := r.Samples["quiet_rounds"] // > 0 where the timings come from the quiet rounds
	for _, k := range endToEnd {
		m := r.EndToEnd[k]
		note := ""
		switch k {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", r.Samples[k])
			if r.Traced {
				note += "; a traced run sets up once"
			}
		case "round_s":
			note = fmt.Sprintf("median of %d committed rounds", r.Samples[k])
			if quiet > 0 {
				note = fmt.Sprintf("mean of the quiet %d of %d committed rounds (quietRounds in stats.go)", quiet, r.Samples[k])
			}
		case "commit_p50_s":
			note = fmt.Sprintf("%d exact samples", r.Samples[k])
			if quiet > 0 {
				note = "exact samples, the orders of the quiet rounds"
			}
		case "commit_p99_s":
			note = fmt.Sprintf("%d exact samples, %d beyond", r.Samples[k], r.Samples["commit_beyond_p99"])
		case "orders_per_s", "failed_frac":
			note = fmt.Sprintf("%d attempted, %d failed", r.Attempted, r.Failed)
			if quiet > 0 && k == "orders_per_s" {
				note += "; rate of the quiet rounds"
			}
		}
		fmt.Fprintf(&sb, "    %-22s %14.6f %-6s %s\n", k, m.Value, m.Unit, note)
	}
	if r.Traced {
		fmt.Fprintf(&sb, "  per-layer metrics (traced rounds; 0 = the layer does no work on this workload)\n")
		for _, lm := range perLayer {
			m := r.PerLayer[lm.Name]
			fmt.Fprintf(&sb, "    %-34s %16.6f %s\n", lm.Name, m.Value, m.Unit)
		}
		sb.WriteString(r.budget)
		fmt.Fprintf(&sb, "  spans: %s\n", r.TraceFile)
	}
	passed := 0
	for _, c := range r.Checks {
		if c.OK {
			passed++
		}
	}
	fmt.Fprintf(&sb, "  checks: %d of %d passed\n", passed, len(r.Checks))
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(&sb, "    FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	if r.Invalid != "" {
		fmt.Fprintf(&sb, "  INVALID: %s\n", r.Invalid)
	}
	io.WriteString(w, sb.String())

	line := resultLine{Correct: r.ok(), Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metric)}
	if r.Traced {
		line.Metrics = r.PerLayer
	} else {
		for _, k := range endToEnd {
			if _, skip := ungated[k]; !skip {
				line.Metrics[k] = r.EndToEnd[k]
			}
		}
	}
	data, err := json.Marshal(line)
	if err != nil { // NaN or Inf in a metric: the run measured nothing
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", r.Workload, err)
		r.invalidate("unprintable metrics: %v", err)
		return
	}
	fmt.Fprintln(w, string(data))
}
