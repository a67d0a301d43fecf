package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"decloud/internal/workload"
)

// fastGoldenCases lists the fast-mode market shapes pinned by
// testdata/fast_golden.json, three rounds each. Fast mode is a pure
// function of the seed, so every exported RoundMetrics field is
// compared exactly.
func fastGoldenCases() []struct {
	name string
	cfg  Config
} {
	plain := Config{Mode: Fast, Rounds: 3, Workload: workload.Config{Seed: 11, Requests: 60}}

	incremental := plain
	incremental.Auction.Incremental = true

	metros := plain
	metros.Metros = 3
	metros.Workload.GeoRadius = 0.6

	resubmit := plain
	resubmit.Workload.Providers = 4 // tight supply: requests carry and expire
	resubmit.Resubmit, resubmit.MaxResubmits = true, 1

	return []struct {
		name string
		cfg  Config
	}{
		{"plain", plain},
		{"incremental", incremental},
		{"metros3", metros},
		{"resubmit", resubmit},
	}
}

// TestFastGolden pins fast-mode sim.Run, round for round, across every
// market shape the round loop dispatches over. A refactor of the loop
// must leave this file untouched; an intentional behaviour change
// regenerates it with:
//
//	GOLDEN_UPDATE=1 go test ./internal/sim -run TestFastGolden
func TestFastGolden(t *testing.T) {
	got := make(map[string][]RoundMetrics)
	for _, c := range fastGoldenCases() {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range res.Rounds {
			res.Rounds[i].matchedIDs = nil // unexported bookkeeping, not in the file
		}
		got[c.name] = res.Rounds
	}

	path := filepath.Join("testdata", "fast_golden.json")
	if os.Getenv("GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated: %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	var want map[string][]RoundMetrics
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file holds %d cases, test runs %d", len(want), len(got))
	}
	for name, rounds := range got {
		if len(rounds) != 3 || len(want[name]) != 3 {
			t.Fatalf("%s: %d rounds run, %d pinned, want 3 and 3", name, len(rounds), len(want[name]))
		}
		for i := range rounds {
			if !reflect.DeepEqual(rounds[i], want[name][i]) {
				t.Errorf("%s round %d drift:\n got %+v\nwant %+v", name, i, rounds[i], want[name][i])
			}
		}
	}
}
