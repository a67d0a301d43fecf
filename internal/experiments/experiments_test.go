package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// smallScale keeps test sweeps fast while exercising the size trend.
func smallScale() ScaleConfig {
	return ScaleConfig{Sizes: []int{25, 50, 100, 200, 400}, Reps: 3, Seed: 42, LoessSpan: 0.6}
}

func smallFlex() FlexConfig {
	return FlexConfig{
		Skews:      []float64{0, 0.45, 0.9},
		FlexLevels: []float64{1.0, 0.8, 0.6},
		Requests:   120,
		Providers:  100,
		Reps:       3,
		Seed:       42,
	}
}

func TestScaleSweepShape(t *testing.T) {
	points := RunScaleSweep(smallScale())
	if len(points) != 5*3 {
		t.Fatalf("points = %d", len(points))
	}
	// Aggregate means per size.
	ratioBySize := make(map[int][]float64)
	reducedBySize := make(map[int][]float64)
	for _, p := range points {
		if p.Benchmark <= 0 {
			t.Fatalf("benchmark welfare non-positive at n=%d", p.Requests)
		}
		if p.DeCloud > p.Benchmark*1.05 {
			t.Fatalf("DeCloud welfare exceeds benchmark at n=%d: %v > %v", p.Requests, p.DeCloud, p.Benchmark)
		}
		ratioBySize[p.Requests] = append(ratioBySize[p.Requests], p.Ratio)
		reducedBySize[p.Requests] = append(reducedBySize[p.Requests], p.ReducedPct)
	}
	// Paper shape #1 (Fig 5b): the ratio in large markets is high and not
	// below the small-market ratio.
	small, large := Mean(ratioBySize[25]), Mean(ratioBySize[400])
	if large < 0.85 {
		t.Fatalf("large-market welfare ratio = %v, want ≥ 0.85", large)
	}
	if large < small-0.05 {
		t.Fatalf("ratio should improve with market size: small=%v large=%v", small, large)
	}
	if small < 0.5 {
		t.Fatalf("small-market ratio collapsed: %v", small)
	}
}

func TestScaleSweepReducedTradesShrink(t *testing.T) {
	points := RunScaleSweep(smallScale())
	lostBySize := make(map[int][]float64)
	for _, p := range points {
		lostBySize[p.Requests] = append(lostBySize[p.Requests], p.ReducedPct)
	}
	// Paper shape #2 (Fig 5c): reduced trades shrink as the market grows.
	if Mean(lostBySize[400]) > Mean(lostBySize[25])+1 {
		t.Fatalf("reduced trades should shrink with size: n=25 %v%%, n=400 %v%%",
			Mean(lostBySize[25]), Mean(lostBySize[400]))
	}
	if Mean(lostBySize[400]) > 6 {
		t.Fatalf("large-market reduced trades = %v%%, want ≤ 6%%", Mean(lostBySize[400]))
	}
}

func TestFlexSweepShape(t *testing.T) {
	points := RunFlexSweep(smallFlex())
	if len(points) != 3*3 {
		t.Fatalf("points = %d", len(points))
	}
	// Index satisfaction by (flex, skew).
	sat := make(map[[2]float64]float64)
	for _, p := range points {
		sat[[2]float64{p.Flexibility, p.Skew}] = p.Satisfaction.Mean
		if p.Satisfaction.Mean < 0 || p.Satisfaction.Mean > 1 {
			t.Fatalf("satisfaction out of range: %+v", p)
		}
		if p.Similarity > 1 {
			t.Fatalf("similarity > 1: %v", p.Similarity)
		}
	}
	// Paper shape #3 (Fig 5d/5e): at high divergence, more flexibility
	// gives (weakly) higher satisfaction.
	highSkew := 0.9
	if sat[[2]float64{0.6, highSkew}] < sat[[2]float64{1.0, highSkew}]-0.03 {
		t.Fatalf("flexibility should help under divergence: f=0.6 %v < inflexible %v",
			sat[[2]float64{0.6, highSkew}], sat[[2]float64{1.0, highSkew}])
	}
	// Paper shape #4: satisfaction rises with similarity (less skew)
	// for inflexible clients.
	if sat[[2]float64{1.0, 0.0}] < sat[[2]float64{1.0, 0.9}]-0.02 {
		t.Fatalf("satisfaction should rise with similarity: skew0 %v < skew0.9 %v",
			sat[[2]float64{1.0, 0.0}], sat[[2]float64{1.0, 0.9}])
	}
}

func TestFigureTablesRender(t *testing.T) {
	scalePoints := RunScaleSweep(ScaleConfig{Sizes: []int{25, 50}, Reps: 2, Seed: 1, LoessSpan: 0.8})
	flexPoints := RunFlexSweep(FlexConfig{
		Skews: []float64{0, 0.5}, FlexLevels: []float64{1.0, 0.8},
		Requests: 40, Providers: 30, Reps: 1, Seed: 1,
	})
	tables := []*Table{
		Fig5a(scalePoints, 0.8),
		Fig5b(scalePoints, 0.8),
		Fig5c(scalePoints, 0.8),
		Fig5d(flexPoints),
		Fig5e(flexPoints),
		Fig5f(flexPoints),
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s has no rows", tbl.Title)
		}
		var ascii bytes.Buffer
		tbl.Fprint(&ascii)
		if !strings.Contains(ascii.String(), tbl.Title) {
			t.Fatalf("%s: ASCII output missing title", tbl.Title)
		}
		var csvBuf bytes.Buffer
		if err := tbl.WriteCSV(&csvBuf); err != nil {
			t.Fatalf("%s: csv: %v", tbl.Title, err)
		}
		lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
		if len(lines) != len(tbl.Rows)+1 {
			t.Fatalf("%s: csv rows = %d, want %d", tbl.Title, len(lines), len(tbl.Rows)+1)
		}
		if lines[0] != strings.Join(tbl.Header, ",") {
			t.Fatalf("%s: csv header = %q", tbl.Title, lines[0])
		}
	}
}

func TestFig5dFiltersLevels(t *testing.T) {
	points := []FlexPoint{
		{Flexibility: 1.0, Skew: 0, Similarity: 0.9},
		{Flexibility: 0.8, Skew: 0, Similarity: 0.9},
		{Flexibility: 0.6, Skew: 0, Similarity: 0.9},
	}
	tbl := Fig5d(points)
	if len(tbl.Rows) != 2 {
		t.Fatalf("Fig5d should keep only levels 1.0 and 0.8, got %d rows", len(tbl.Rows))
	}
}

func TestTableAddRowFormats(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b", "c"}}
	tbl.AddRow("x", 1.5, 7)
	if tbl.Rows[0][0] != "x" || tbl.Rows[0][1] != "1.5" || tbl.Rows[0][2] != "7" {
		t.Fatalf("AddRow = %v", tbl.Rows[0])
	}
}

func TestDefaultConfigs(t *testing.T) {
	sc := DefaultScaleConfig()
	if len(sc.Sizes) == 0 || sc.Reps == 0 {
		t.Fatalf("DefaultScaleConfig = %+v", sc)
	}
	fc := DefaultFlexConfig()
	if len(fc.Skews) == 0 || len(fc.FlexLevels) == 0 {
		t.Fatalf("DefaultFlexConfig = %+v", fc)
	}
}

func TestSweepsDeterministic(t *testing.T) {
	cfg := ScaleConfig{Sizes: []int{50}, Reps: 2, Seed: 5}
	a := RunScaleSweep(cfg)
	b := RunScaleSweep(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scale sweep nondeterministic at %d", i)
		}
	}
}
