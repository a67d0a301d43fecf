package resource

import (
	"math"
	"testing"
)

// TestScaleZeroMaxima pins the degenerate-scale behavior the indexed
// matcher's score mask relies on: kinds whose block maximum is zero (or
// unknown) cannot discriminate — they contribute nothing to Fraction.
func TestScaleZeroMaxima(t *testing.T) {
	s := NewScale(Vector{CPU: 4, RAM: 0})
	if got := s.Max(RAM); got != 0 {
		t.Fatalf("Max(RAM) = %v, want 0", got)
	}
	if got := s.Max("ghost"); got != 0 {
		t.Fatalf("Max(unknown) = %v, want 0", got)
	}
	// The RAM component must not leak into the ν sum in either position.
	if got, want := s.Fraction(Vector{CPU: 4, RAM: 100}), 1.0; got != want {
		t.Fatalf("Fraction = %v, want %v (zero-max kind excluded)", got, want)
	}

	empty := NewScale()
	if got := empty.Fraction(Vector{CPU: 4}); got != 0 {
		t.Fatalf("Fraction on empty scale = %v, want 0", got)
	}
	if got := empty.CriticalFraction(Vector{CPU: 4}, map[Kind]bool{CPU: true}); got != 0 {
		t.Fatalf("CriticalFraction on empty scale = %v, want 0", got)
	}
}

// TestFractionRequestOnlyKinds: a kind only requests demand (no offer
// provides it) is outside the cluster's virtual maximum M_CL, so it must
// not inflate ν — and a request exceeding the maxima clamps to 1.
func TestFractionRequestOnlyKinds(t *testing.T) {
	// M_CL built from offers that provide CPU and RAM only.
	s := NewScale(Vector{CPU: 8, RAM: 16})
	withGPU := s.Fraction(Vector{CPU: 4, RAM: 8, GPU: 1000})
	without := s.Fraction(Vector{CPU: 4, RAM: 8})
	if withGPU != without {
		t.Fatalf("request-only kind changed ν: %v != %v", withGPU, without)
	}
	if want := math.Sqrt(4*4+8*8) / math.Sqrt(8*8+16*16); without != want {
		t.Fatalf("Fraction = %v, want %v", without, want)
	}
	if got := s.Fraction(Vector{CPU: 80, RAM: 160}); got != 1 {
		t.Fatalf("oversized request ν = %v, want clamp to 1", got)
	}
}

// TestCriticalFractionEdges covers the skip-and-clamp rules: critical
// kinds with zero or unknown maxima are ignored, absent components count
// as zero, and the share clamps at 1.
func TestCriticalFractionEdges(t *testing.T) {
	s := NewScale(Vector{CPU: 8, RAM: 0})
	crit := map[Kind]bool{CPU: true, RAM: true, "ghost": true}
	if got := s.CriticalFraction(Vector{CPU: 2, RAM: 999, "ghost": 999}, crit); got != 0.25 {
		t.Fatalf("CriticalFraction = %v, want 0.25 (zero/unknown maxima skipped)", got)
	}
	if got := s.CriticalFraction(Vector{RAM: 5}, crit); got != 0 {
		t.Fatalf("CriticalFraction = %v, want 0 (no scalable critical kind demanded)", got)
	}
	if got := s.CriticalFraction(Vector{CPU: 800}, crit); got != 1 {
		t.Fatalf("CriticalFraction = %v, want clamp to 1", got)
	}
}

// TestCoverThresholdBoundary ties CoversFraction to the exported
// CoverThreshold: the indexed matcher precomputes thresholds with it, so
// the two must agree on exact borderline quantities.
func TestCoverThresholdBoundary(t *testing.T) {
	need := Vector{CPU: 10}
	frac := 0.8
	thr := CoverThreshold(10, frac)
	if (Vector{CPU: thr}).CoversFraction(need, frac) != true {
		t.Fatal("quantity exactly at CoverThreshold must cover")
	}
	below := math.Nextafter(thr, 0)
	if (Vector{CPU: below}).CoversFraction(need, frac) {
		t.Fatal("quantity just below CoverThreshold must not cover")
	}
	// Zero-demand components never gate coverage.
	if !(Vector{}).CoversFraction(Vector{CPU: 0}, 1) {
		t.Fatal("zero demand must always be covered")
	}
}
