package reputation

import (
	"sync"
	"testing"
)

func TestInitialScore(t *testing.T) {
	s := NewStore()
	if got := s.Score("newcomer"); got != Initial {
		t.Fatalf("Score = %v, want %v", got, Initial)
	}
}

func TestDenyPenaltyCompounds(t *testing.T) {
	s := NewStore()
	s.RecordDeny("flaky")
	first := s.Score("flaky")
	if first >= Initial {
		t.Fatalf("denial should cost reputation: %v", first)
	}
	s.RecordDeny("flaky")
	second := s.Score("flaky")
	// Successive denials must cost proportionally more: the second drop
	// factor (0.8) is harsher than the first (0.9).
	if second/first > first/Initial {
		t.Fatalf("penalty not compounding: %v → %v", first, second)
	}
	// A long streak floors at zero, never negative.
	for i := 0; i < 20; i++ {
		s.RecordDeny("flaky")
	}
	if got := s.Score("flaky"); got < 0 {
		t.Fatalf("score went negative: %v", got)
	}
}

func TestAcceptResetsStreakAndRecovers(t *testing.T) {
	s := NewStore()
	s.RecordDeny("client")
	s.RecordDeny("client")
	low := s.Score("client")
	s.RecordAccept("client")
	if got := s.Score("client"); got <= low {
		t.Fatal("accept should recover reputation")
	}
	// After an accept, the next deny is a first-in-streak (mild) penalty.
	before := s.Score("client")
	s.RecordDeny("client")
	after := s.Score("client")
	if ratio := after / before; ratio < 0.89 || ratio > 0.91 {
		t.Fatalf("streak did not reset: drop factor %v, want 0.9", ratio)
	}
}

func TestScoreCappedAtOne(t *testing.T) {
	s := NewStore()
	for i := 0; i < 50; i++ {
		s.RecordAccept("good")
	}
	if got := s.Score("good"); got > 1 {
		t.Fatalf("score above 1: %v", got)
	}
}

func TestStats(t *testing.T) {
	s := NewStore()
	s.RecordAccept("x")
	s.RecordAccept("x")
	s.RecordDeny("x")
	a, d := s.Stats("x")
	if a != 2 || d != 1 {
		t.Fatalf("Stats = %d/%d", a, d)
	}
	a, d = s.Stats("unknown")
	if a != 0 || d != 0 {
		t.Fatal("unknown participant should have zero stats")
	}
}

func TestSnapshotSorted(t *testing.T) {
	s := NewStore()
	s.RecordAccept("zeta")
	s.RecordDeny("alpha")
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].ID != "alpha" || snap[1].ID != "zeta" {
		t.Fatalf("Snapshot = %+v", snap)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if n%2 == 0 {
					s.RecordAccept("shared")
				} else {
					s.RecordDeny("shared")
				}
				_ = s.Score("shared")
			}
		}(i)
	}
	wg.Wait()
	a, d := s.Stats("shared")
	if a != 400 || d != 400 {
		t.Fatalf("lost updates: %d/%d", a, d)
	}
}
