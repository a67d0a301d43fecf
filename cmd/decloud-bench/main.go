// Command decloud-bench regenerates the paper's evaluation figures
// (Section V, Figures 5a–5f), printing each as an ASCII table and
// optionally writing CSVs for plotting.
//
// Usage:
//
//	decloud-bench [-fig 5a|5b|5c|5d|5e|5f|all] [-out DIR] [-quick]
//	              [-reps N] [-seed N] [-workers N]
//	              [-cpuprofile FILE] [-memprofile FILE]
//
// -cpuprofile and -memprofile write pprof profiles of the sweeps (view
// with `go tool pprof`), which is how the matching-engine hot spots in
// DESIGN.md's performance model were measured.
//
// Figures 5a–5c share one market-size sweep; 5d–5f share one
// flexibility/divergence sweep, so asking for several figures of a group
// reuses the same run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"decloud/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5a..5f or all")
	outDir := flag.String("out", "", "directory for CSV output (omit to skip CSVs)")
	quick := flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
	reps := flag.Int("reps", 0, "repetitions per sweep point (0 = default)")
	seed := flag.Int64("seed", 42, "base random seed")
	ablation := flag.Bool("ablation", false, "also run the design-choice ablations")
	compare := flag.Bool("compare", false, "also run the DeCloud/VCG/greedy/optimum comparison")
	dynamics := flag.Bool("dynamics", false, "also run the multi-round elastic-supply trajectory")
	workers := flag.Int("workers", 0, "auction worker-pool size (0 = all cores); results are identical at any value")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU pprof profile of the sweeps to this file")
	memprofile := flag.String("memprofile", "", "write an allocation pprof profile (after the sweeps) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "decloud-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "decloud-bench: start cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "decloud-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the heap profile is stable
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "decloud-bench: write mem profile: %v\n", err)
			}
		}()
	}

	// The sweeps build auction.DefaultConfig() internally, which sizes
	// its worker pool from GOMAXPROCS — so capping GOMAXPROCS caps every
	// pool in the process. Outcomes are worker-count-invariant by
	// construction (see internal/auction/paralleltest); the flag only
	// trades wall-clock against CPU.
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}

	want := map[string]bool{}
	if *fig == "all" {
		for _, f := range []string{"5a", "5b", "5c", "5d", "5e", "5f"} {
			want[f] = true
		}
	} else {
		for _, f := range strings.Split(*fig, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}
	for f := range want {
		switch f {
		case "5a", "5b", "5c", "5d", "5e", "5f":
		default:
			fmt.Fprintf(os.Stderr, "decloud-bench: unknown figure %q\n", f)
			os.Exit(2)
		}
	}

	var tables []*experiments.Table
	if want["5a"] || want["5b"] || want["5c"] {
		cfg := experiments.DefaultScaleConfig()
		cfg.Seed = *seed
		if *reps > 0 {
			cfg.Reps = *reps
		}
		if *quick {
			cfg.Sizes = []int{25, 50, 100, 200, 400}
			cfg.Reps = 3
		}
		fmt.Fprintf(os.Stderr, "running market-size sweep: %d sizes × %d reps...\n", len(cfg.Sizes), cfg.Reps)
		points := experiments.RunScaleSweep(cfg)
		if want["5a"] {
			tables = append(tables, experiments.Fig5a(points, cfg.LoessSpan))
		}
		if want["5b"] {
			tables = append(tables, experiments.Fig5b(points, cfg.LoessSpan))
		}
		if want["5c"] {
			tables = append(tables, experiments.Fig5c(points, cfg.LoessSpan))
		}
	}
	if want["5d"] || want["5e"] || want["5f"] {
		cfg := experiments.DefaultFlexConfig()
		cfg.Seed = *seed
		if *reps > 0 {
			cfg.Reps = *reps
		}
		if *quick {
			cfg.Requests, cfg.Providers, cfg.Reps = 120, 100, 3
			cfg.Skews = []float64{0, 0.3, 0.6, 0.9}
		}
		fmt.Fprintf(os.Stderr, "running flexibility sweep: %d skews × %d levels × %d reps...\n",
			len(cfg.Skews), len(cfg.FlexLevels), cfg.Reps)
		points := experiments.RunFlexSweep(cfg)
		if want["5d"] {
			tables = append(tables, experiments.Fig5d(points))
		}
		if want["5e"] {
			tables = append(tables, experiments.Fig5e(points))
		}
		if want["5f"] {
			tables = append(tables, experiments.Fig5f(points))
		}
	}

	if *ablation {
		fmt.Fprintln(os.Stderr, "running ablations...")
		sizes := []int{50, 200, 400}
		repsA := 3
		if *quick {
			sizes = []int{50, 200}
			repsA = 2
		}
		tables = append(tables,
			experiments.ReductionAblationTable(experiments.RunReductionAblation(sizes, repsA, *seed)),
			experiments.BandAblationTable(experiments.RunBandAblation([]float64{0.95, 0.7, 0.5}, 120, 100, repsA, *seed)),
		)
	}

	if *compare {
		fmt.Fprintln(os.Stderr, "running mechanism comparison (exact solver; small markets)...")
		repsC := 10
		if *quick {
			repsC = 4
		}
		tables = append(tables,
			experiments.ComparisonTable(experiments.RunMechanismComparison(12, 4, repsC, *seed)))
	}

	if *dynamics {
		fmt.Fprintln(os.Stderr, "running market dynamics...")
		dcfg := experiments.DefaultDynamicsConfig()
		dcfg.Seed = *seed
		tables = append(tables, experiments.DynamicsTable(experiments.RunMarketDynamics(dcfg)))
	}

	for _, tbl := range tables {
		tbl.Fprint(os.Stdout)
		fmt.Println()
		if *outDir != "" {
			if err := writeCSV(*outDir, tbl); err != nil {
				fmt.Fprintf(os.Stderr, "decloud-bench: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

func writeCSV(dir string, tbl *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fields := strings.Fields(tbl.Title)
	var name string
	if fields[0] == "Figure" {
		name = "fig" + strings.ToLower(fields[1]) // "Figure 5a — ..." → fig5a
	} else {
		// "Ablation — trade-reduction scope ..." → ablation-trade-reduction
		name = strings.ToLower(fields[0])
		if len(fields) > 2 && fields[1] == "—" {
			name += "-" + strings.ToLower(fields[2])
		}
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tbl.WriteCSV(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
