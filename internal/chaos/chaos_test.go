package chaos

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"
)

func digest(s string) [32]byte { return sha256.Sum256([]byte(s)) }

func TestVerdictsAreDeterministic(t *testing.T) {
	mk := func() *Plan {
		return &Plan{Seed: 42, Probs: Probs{Drop: 0.3, Delay: 0.3, Dup: 0.2}}
	}
	a, b := mk(), mk()
	for i := 0; i < 200; i++ {
		d := digest(fmt.Sprintf("bid-%d", i))
		for attempt := 0; attempt < 4; attempt++ {
			if a.RevealLost(1, attempt, "m0", "p0", d) != b.RevealLost(1, attempt, "m0", "p0", d) {
				t.Fatalf("RevealLost diverged at bid %d attempt %d", i, attempt)
			}
		}
		key := digest(fmt.Sprintf("msg-%d", i))
		sa := a.PlanDelivery("n0", "n1", "reveal", key)
		sb := b.PlanDelivery("n0", "n1", "reveal", key)
		if len(sa) != len(sb) {
			t.Fatalf("PlanDelivery diverged at msg %d: %v vs %v", i, sa, sb)
		}
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatalf("PlanDelivery delay diverged at msg %d: %v vs %v", i, sa, sb)
			}
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	a := &Plan{Seed: 1, Probs: Probs{Drop: 0.5}}
	b := &Plan{Seed: 2, Probs: Probs{Drop: 0.5}}
	same := 0
	const n = 200
	for i := 0; i < n; i++ {
		d := digest(fmt.Sprintf("bid-%d", i))
		if a.RevealLost(0, 0, "m", "p", d) == b.RevealLost(0, 0, "m", "p", d) {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical verdicts")
	}
}

func TestProbabilityExtremes(t *testing.T) {
	key := digest("k")
	drop := &Plan{Seed: 7, Probs: Probs{Drop: 1}}
	if s := drop.PlanDelivery("a", "b", "x", key); s == nil || len(s) != 0 {
		t.Fatalf("Drop=1 schedule = %v, want empty", s)
	}
	delay := &Plan{Seed: 7, Probs: Probs{Delay: 1}, Step: time.Millisecond}
	if s := delay.PlanDelivery("a", "b", "x", key); len(s) != 1 || s[0] <= 0 {
		t.Fatalf("Delay=1 schedule = %v, want one positive delay", s)
	}
	dup := &Plan{Seed: 7, Probs: Probs{Dup: 1}}
	if s := dup.PlanDelivery("a", "b", "x", key); len(s) != 2 || s[0] != 0 || s[1] <= 0 {
		t.Fatalf("Dup=1 schedule = %v, want immediate copy plus a delayed one", s)
	}
	clean := &Plan{Seed: 7}
	if s := clean.PlanDelivery("a", "b", "x", key); s != nil {
		t.Fatalf("zero-prob plan returned %v, want nil (deliver normally)", s)
	}
}

func TestTypeProbsOverride(t *testing.T) {
	p := &Plan{
		Seed:      3,
		Probs:     Probs{Drop: 1},
		TypeProbs: map[string]Probs{"block": {}},
	}
	if s := p.PlanDelivery("a", "b", "reveal", digest("k")); len(s) != 0 {
		t.Fatalf("default probs not applied: %v", s)
	}
	if s := p.PlanDelivery("a", "b", "block", digest("k")); s != nil {
		t.Fatalf("override not applied: %v", s)
	}
}

func TestPartitionWindowsAndSymmetry(t *testing.T) {
	p := &Plan{
		Partitions: []Partition{{
			Window: Window{From: 1, Until: 3},
			GroupA: []string{"a"},
			GroupB: []string{"b", "c"},
		}},
	}
	if p.Partitioned(0, "a", "b") || p.Partitioned(3, "a", "b") {
		t.Fatal("partition active outside its window")
	}
	if !p.Partitioned(1, "a", "b") || !p.Partitioned(2, "c", "a") {
		t.Fatal("partition inactive inside its window (or asymmetric)")
	}
	if p.Partitioned(1, "b", "c") {
		t.Fatal("same-side nodes partitioned")
	}
	if s := p.PlanDelivery("x", "y", "t", digest("k")); s != nil {
		t.Fatalf("unrelated nodes faulted: %v", s)
	}
	p.SetNow(1)
	if s := p.PlanDelivery("a", "b", "t", digest("k")); len(s) != 0 {
		t.Fatalf("partitioned delivery not dropped: %v", s)
	}
}

func TestCrashWindows(t *testing.T) {
	p := &Plan{Crashes: []Crash{{Window: Window{From: 0, Until: 2}, Node: "m1"}}}
	if !p.Crashed(0, "m1") || !p.Crashed(1, "m1") {
		t.Fatal("crash window not honored")
	}
	if p.Crashed(2, "m1") || p.Crashed(0, "m2") {
		t.Fatal("crash leaks outside window or node")
	}
	// A crashed node neither sends nor receives.
	if s := p.PlanDelivery("m1", "x", "t", digest("k")); len(s) != 0 {
		t.Fatal("crashed receiver still delivered")
	}
	if s := p.PlanDelivery("x", "m1", "t", digest("k")); len(s) != 0 {
		t.Fatal("crashed sender's message still delivered")
	}
	if !p.RevealLost(1, 0, "m0", "m1", digest("bid")) {
		t.Fatal("crashed sender's reveal still arrived")
	}
}

func TestBlockedRevealsAlwaysLost(t *testing.T) {
	d := digest("bid")
	p := &Plan{BlockedReveals: map[[32]byte]bool{d: true}}
	for attempt := 0; attempt < 5; attempt++ {
		if !p.RevealLost(0, attempt, "m", "p", d) {
			t.Fatalf("blocked reveal delivered on attempt %d", attempt)
		}
	}
	if p.RevealLost(0, 0, "m", "p", digest("other")) {
		t.Fatal("unblocked reveal lost by a fault-free plan")
	}
}

func TestNilPlanIsFaultFree(t *testing.T) {
	var p *Plan
	if p.RevealLost(0, 0, "m", "p", digest("d")) || p.Crashed(0, "m") || p.Partitioned(0, "a", "b") {
		t.Fatal("nil plan injected a fault")
	}
	if s := p.PlanDelivery("a", "b", "t", digest("k")); s != nil {
		t.Fatalf("nil plan returned schedule %v", s)
	}
	if p.Now() != 0 {
		t.Fatal("nil plan clock nonzero")
	}
}

func TestClock(t *testing.T) {
	p := &Plan{}
	if p.Now() != 0 {
		t.Fatal("fresh clock nonzero")
	}
	p.SetNow(5)
	if p.Now() != 5 {
		t.Fatal("SetNow lost")
	}
}

func TestSoakPlanStableAndVaried(t *testing.T) {
	nodes := []string{"m0", "m1", "m2"}
	a, b := SoakPlan(9, nodes), SoakPlan(9, nodes)
	if a.Probs != b.Probs || len(a.Partitions) != len(b.Partitions) || len(a.Crashes) != len(b.Crashes) {
		t.Fatal("SoakPlan not stable for one seed")
	}
	withPartition, withCrash := 0, 0
	for seed := int64(0); seed < 50; seed++ {
		p := SoakPlan(seed, nodes)
		if p.Probs.Drop < 0.1 || p.Probs.Drop > 0.5 {
			t.Fatalf("seed %d: drop prob %v out of band", seed, p.Probs.Drop)
		}
		if len(p.Partitions) > 0 {
			withPartition++
		}
		if len(p.Crashes) > 0 {
			withCrash++
		}
	}
	if withPartition == 0 || withCrash == 0 {
		t.Fatalf("soak sweep never drew a partition (%d) or crash (%d)", withPartition, withCrash)
	}
}
