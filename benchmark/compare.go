package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and the share of the base median by
// which it may worsen.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadResults(path string) ([]*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []*runResult
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}

// gather collects metric → samples over the untraced runs of a workload.
func gather(results []*runResult, workload string) map[string]*samples {
	by := make(map[string]*samples)
	for _, r := range results {
		if r.Workload != workload || r.Traced {
			continue
		}
		for k, m := range r.EndToEnd {
			if by[k] == nil {
				by[k] = &samples{}
			}
			by[k].add(m.Value)
		}
	}
	return by
}

// verdict judges set b against set a for one metric: "regressed" when
// b's median is worse than a's by more than bound (a share of a's
// median), "unresolved" when either set's interquartile spread is wider
// than the bound — the runs cannot tell — and "ok" otherwise.
func verdict(a, b *samples, better string, bound float64) (delta float64, v string) {
	_, ma, _ := a.quartiles()
	_, mb, _ := b.quartiles()
	if ma != 0 {
		delta = (mb - ma) / ma
	}
	worse := delta
	if better == "higher" {
		worse = -delta
	}
	switch {
	case worse > bound:
		return delta, "regressed"
	case a.count() > 1 && (a.spread() > bound || b.spread() > bound):
		return delta, "unresolved"
	}
	return delta, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians with quartiles, the change with its base, the bound and the
// verdict. It returns 1 if any verdict is not ok.
func compareFiles(w io.Writer, pathA, pathB, boundsPath string) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "benchmark: -compare: %v\n", err)
		return 2
	}
	a, err := loadResults(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := loadResults(pathB)
	if err != nil {
		return fail(err)
	}
	data, err := os.ReadFile(boundsPath)
	if err != nil {
		return fail(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fail(fmt.Errorf("%s: %w", boundsPath, err))
	}
	return compareSets(w, a, b, spec)
}

func compareSets(w io.Writer, a, b []*runResult, spec benchmarkSpec) int {
	code := 0
	for _, wl := range workloadOrder {
		sa, sb := gather(a, wl), gather(b, wl)
		if len(sa) == 0 || len(sb) == 0 {
			continue
		}
		fmt.Fprintf(w, "== %s  (a: %d runs, b: %d runs)\n", wl, sa["round_s"].count(), sb["round_s"].count())
		fmt.Fprintf(w, "  %-20s %-38s %-38s %-22s %7s  %s\n", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "change (base a)", "bound", "verdict")
		row := func(name string, bound float64, v string, delta float64) {
			a1, a2, a3 := sa[name].quartiles()
			b1, b2, b3 := sb[name].quartiles()
			fmt.Fprintf(w, "  %-20s %-38s %-38s %-22s %6.1f%%  %s\n", name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", a2, a1, a3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", b2, b1, b3),
				fmt.Sprintf("%+.2f%% of %.6g", 100*delta, a2), 100*bound, v)
			if v == "regressed" || v == "unresolved" {
				code = 1
			}
		}
		for _, m := range spec.EndToEnd {
			if sa[m.Name] == nil || sb[m.Name] == nil {
				continue
			}
			delta, v := verdict(sa[m.Name], sb[m.Name], m.Better, m.Bound)
			row(m.Name, m.Bound, v, delta)
		}
		if pa, pb := sa["commit_p99_s"], sb["commit_p99_s"]; pa != nil && pb != nil {
			delta, _ := verdict(pa, pb, "lower", 1)
			row("commit_p99_s", 0, "not gated", delta) // see ungated
		}
		// failed_frac has an absolute bound of zero: any failure in b that
		// a did not have is a regression.
		if fa, fb := sa["failed_frac"], sb["failed_frac"]; fa != nil && fb != nil {
			v := "ok"
			if fb.max() > fa.max() {
				v = "regressed"
			}
			row("failed_frac", 0, v, fb.max()-fa.max())
		}
	}
	return code
}
