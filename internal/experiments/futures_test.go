package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func overbookingByArm(points []OverbookingPoint) map[float64]map[float64]OverbookingPoint {
	byRate := make(map[float64]map[float64]OverbookingPoint)
	for _, p := range points {
		if byRate[p.NoShowRate] == nil {
			byRate[p.NoShowRate] = make(map[float64]OverbookingPoint)
		}
		byRate[p.NoShowRate][p.Ratio] = p
	}
	return byRate
}

func TestOverbookingSweepShape(t *testing.T) {
	cfg := DefaultOverbookingConfig()
	points := RunOverbookingSweep(cfg)
	if want := len(cfg.NoShowRates) * len(cfg.Ratios); len(points) != want {
		t.Fatalf("got %d points, want %d", len(points), want)
	}
	for _, p := range points {
		if p.Utilization <= 0 || p.Utilization > 1.0+1e-9 {
			t.Errorf("rate %.2f arm %.2f: utilization %.4f out of (0,1]", p.NoShowRate, p.Ratio, p.Utilization)
		}
		if p.Welfare <= 0 {
			t.Errorf("rate %.2f arm %.2f: non-positive welfare %.4f", p.NoShowRate, p.Ratio, p.Welfare)
		}
		if p.Ratio == 0 {
			// The control arm holds no contracts, so no futures activity.
			if p.Reserved != 0 || p.Bumps != 0 || p.NoShows != 0 || p.Penalties != 0 {
				t.Errorf("rate %.2f: spot control reports futures activity %+v", p.NoShowRate, p)
			}
		} else if p.Reserved == 0 {
			t.Errorf("rate %.2f arm %.2f: no reservations in a demand-rich market", p.NoShowRate, p.Ratio)
		}
	}
	// The reservation book must grow with the overbooking ratio: each
	// arm clears the identical market, so a larger ρ can only admit more
	// contracts.
	byRate := overbookingByArm(points)
	for rate, arms := range byRate {
		for _, pair := range [][2]float64{{1.0, 1.25}, {1.25, 1.5}, {1.5, 2.0}} {
			lo, hi := arms[pair[0]], arms[pair[1]]
			if hi.Reserved < lo.Reserved {
				t.Errorf("rate %.2f: reserved shrank %d → %d as ρ %.2f → %.2f",
					rate, lo.Reserved, hi.Reserved, pair[0], pair[1])
			}
		}
	}
}

// TestOverbookingBeatsSpotUnderDivergence pins the study's headline
// regime: once demand divergence is material, overbooking above 1.0
// strictly beats BOTH the spot-only control (whose cleared-then-broken
// matches strand capacity) and the non-overbooked futures market (which
// cannot backfill its no-shows) — while at zero divergence the control
// honestly wins, since reservations then hedge nothing.
func TestOverbookingBeatsSpotUnderDivergence(t *testing.T) {
	byRate := overbookingByArm(RunOverbookingSweep(DefaultOverbookingConfig()))

	for _, rate := range []float64{0.15, 0.3} {
		arms := byRate[rate]
		spot, plain := arms[0], arms[1.0]
		for _, rho := range []float64{1.5, 2.0} {
			if arms[rho].Utilization <= spot.Utilization {
				t.Errorf("rate %.2f: ρ=%.1f utilization %.4f does not beat spot-only %.4f",
					rate, rho, arms[rho].Utilization, spot.Utilization)
			}
			if arms[rho].Utilization <= plain.Utilization {
				t.Errorf("rate %.2f: ρ=%.1f utilization %.4f does not beat ρ=1.0 %.4f",
					rate, rho, arms[rho].Utilization, plain.Utilization)
			}
		}
	}
	// Welfare follows utilization once divergence is heavy.
	heavy := byRate[0.3]
	if heavy[2.0].Welfare <= heavy[0].Welfare {
		t.Errorf("rate 0.30: ρ=2.0 welfare %.2f does not beat spot-only %.2f",
			heavy[2.0].Welfare, heavy[0].Welfare)
	}
	// No free lunch: with nothing diverging, the spot control is the
	// ceiling and overbooking only burns bumps.
	calm := byRate[0]
	for _, rho := range []float64{1.0, 1.25, 1.5, 2.0} {
		if calm[rho].Utilization > calm[0].Utilization {
			t.Errorf("rate 0: ρ=%.2f utilization %.4f above the no-divergence spot ceiling %.4f",
				rho, calm[rho].Utilization, calm[0].Utilization)
		}
	}
}

func TestOverbookingSweepDeterministic(t *testing.T) {
	a := RunOverbookingSweep(DefaultOverbookingConfig())
	b := RunOverbookingSweep(DefaultOverbookingConfig())
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestOverbookingTableRenders(t *testing.T) {
	tbl := OverbookingTable(RunOverbookingSweep(DefaultOverbookingConfig()))
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"noshow_rate", "spot", "rho=1.50", "utilization"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

// TestOverbookingTableGolden pins the overbooking study's numbers, not
// just their shape: the rendered default sweep must match
// testdata/overbooking.golden byte for byte. A refactor of the futures
// exchange must leave the file untouched; an intentional change to the
// study regenerates it with:
//
//	GOLDEN_UPDATE=1 go test ./internal/experiments -run TestOverbookingTableGolden
func TestOverbookingTableGolden(t *testing.T) {
	var sb strings.Builder
	OverbookingTable(RunOverbookingSweep(DefaultOverbookingConfig())).Fprint(&sb)
	path := filepath.Join("testdata", "overbooking.golden")
	if os.Getenv("GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("overbooking table drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
