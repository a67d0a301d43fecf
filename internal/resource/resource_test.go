package resource

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVectorClone(t *testing.T) {
	v := Vector{CPU: 4, RAM: 16}
	c := v.Clone()
	c[CPU] = 8
	if v[CPU] != 4 {
		t.Fatalf("Clone aliases original: v[CPU] = %v", v[CPU])
	}
	if Vector(nil).Clone() != nil {
		t.Fatal("Clone of nil vector should be nil")
	}
}

func TestVectorKindsSortedAndPositive(t *testing.T) {
	v := Vector{RAM: 16, CPU: 4, Disk: 0, GPU: -1}
	got := v.Kinds()
	want := []Kind{CPU, RAM}
	if len(got) != len(want) {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Kinds() = %v, want %v", got, want)
		}
	}
}

func TestVectorNorm2(t *testing.T) {
	tests := []struct {
		name string
		v    Vector
		want float64
	}{
		{"empty", Vector{}, 0},
		{"nil", nil, 0},
		{"single", Vector{CPU: 3}, 3},
		{"pythagorean", Vector{CPU: 3, RAM: 4}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Norm2(); math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("Norm2() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVectorAddSubScale(t *testing.T) {
	v := Vector{CPU: 4, RAM: 16}
	w := Vector{CPU: 1, Disk: 100}
	sum := v.Add(w)
	if sum[CPU] != 5 || sum[RAM] != 16 || sum[Disk] != 100 {
		t.Fatalf("Add = %v", sum)
	}
	diff := v.Clone()
	diff.SubScaledInPlace(Vector{CPU: 5, RAM: 1}, 2)
	if diff[CPU] != 0 || diff[RAM] != 14 {
		t.Fatalf("SubScaledInPlace = %v, want cpu clamped at 0 and ram 14", diff)
	}
	half := v.Scale(0.5)
	if half[CPU] != 2 || half[RAM] != 8 {
		t.Fatalf("Scale = %v", half)
	}
}

func TestVectorCovers(t *testing.T) {
	offer := Vector{CPU: 4, RAM: 16, Disk: 100}
	tests := []struct {
		name string
		need Vector
		frac float64
		want bool
	}{
		{"exact", Vector{CPU: 4, RAM: 16}, 1, true},
		{"under", Vector{CPU: 2}, 1, true},
		{"over", Vector{CPU: 8}, 1, false},
		{"missing kind", Vector{GPU: 1}, 1, false},
		{"flexible covers", Vector{CPU: 5}, 0.8, true},
		{"flexible still over", Vector{CPU: 6}, 0.8, false},
		{"zero need ignored", Vector{GPU: 0, CPU: 1}, 1, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := offer.CoversFraction(tt.need, tt.frac); got != tt.want {
				t.Fatalf("CoversFraction(%v, %v) = %v, want %v", tt.need, tt.frac, got, tt.want)
			}
		})
	}
}

func TestCommonKinds(t *testing.T) {
	v := Vector{CPU: 4, RAM: 16, SGX: 1}
	w := Vector{CPU: 8, SGX: 1, Disk: 10}
	got := v.CommonKinds(w)
	if len(got) != 2 || got[0] != CPU || got[1] != SGX {
		t.Fatalf("CommonKinds = %v", got)
	}
}

func TestVectorValidate(t *testing.T) {
	if err := (Vector{CPU: 4}).Validate(); err != nil {
		t.Fatalf("valid vector rejected: %v", err)
	}
	bad := []Vector{
		{CPU: -1},
		{CPU: math.NaN()},
		{CPU: math.Inf(1)},
		{"": 1},
	}
	for _, v := range bad {
		if err := v.Validate(); err == nil {
			t.Fatalf("Validate(%v) should fail", v)
		}
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{RAM: 16, CPU: 4}
	if got, want := v.String(), "cpu=4 ram=16"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestScaleNormalize: the maxima a Scale normalizes by are the
// componentwise maxima of the vectors it was built from.
func TestScaleNormalize(t *testing.T) {
	s := NewScale(Vector{CPU: 8, RAM: 32}, Vector{CPU: 4, Disk: 200})
	if s.Max(CPU) != 8 || s.Max(RAM) != 32 || s.Max(Disk) != 200 {
		t.Fatalf("maxima wrong: %v", s.MaxVector())
	}
}

func TestScaleExtend(t *testing.T) {
	s := NewScale(Vector{CPU: 2})
	s.Extend(Vector{CPU: 16, RAM: 64})
	if s.Max(CPU) != 16 || s.Max(RAM) != 64 {
		t.Fatalf("Extend failed: %v", s.MaxVector())
	}
}

func TestScaleFraction(t *testing.T) {
	s := NewScale(Vector{CPU: 8, RAM: 32})
	if got := s.Fraction(Vector{CPU: 8, RAM: 32}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("full vector fraction = %v, want 1", got)
	}
	if got := s.Fraction(Vector{}); got != 0 {
		t.Fatalf("empty vector fraction = %v, want 0", got)
	}
	// A kind unknown to the scale contributes nothing.
	withGPU := s.Fraction(Vector{CPU: 8, RAM: 32, GPU: 100})
	if math.Abs(withGPU-1) > 1e-12 {
		t.Fatalf("unknown kind should not inflate fraction: %v", withGPU)
	}
	// Oversized vectors clamp to 1.
	if got := s.Fraction(Vector{CPU: 80, RAM: 320}); got != 1 {
		t.Fatalf("oversized fraction = %v, want clamp to 1", got)
	}
	empty := NewScale()
	if got := empty.Fraction(Vector{CPU: 1}); got != 0 {
		t.Fatalf("empty scale fraction = %v, want 0", got)
	}
}

func TestCriticalFraction(t *testing.T) {
	s := NewScale(Vector{CPU: 8, RAM: 32, Disk: 100})
	crit := DefaultCritical()
	v := Vector{CPU: 8, RAM: 8, Disk: 10}
	if got := s.CriticalFraction(v, crit); math.Abs(got-1) > 1e-12 {
		t.Fatalf("CPU-saturating request should have critical fraction 1, got %v", got)
	}
	v2 := Vector{CPU: 2, RAM: 8, Disk: 10}
	if got, want := s.CriticalFraction(v2, crit), 0.25; math.Abs(got-want) > 1e-12 {
		t.Fatalf("CriticalFraction = %v, want %v", got, want)
	}
	// Non-critical kinds are ignored.
	v3 := Vector{GPU: 1000}
	if got := s.CriticalFraction(v3, crit); got != 0 {
		t.Fatalf("non-critical kinds should not count, got %v", got)
	}
}

// Property: Fraction is monotone under componentwise growth and always in [0,1].
func TestFractionPropertyMonotone(t *testing.T) {
	f := func(a, b, c uint8, growA, growB uint8) bool {
		s := NewScale(Vector{CPU: 16, RAM: 64, Disk: 500})
		v := Vector{CPU: float64(a % 17), RAM: float64(b % 65), Disk: float64(c)}
		w := v.Add(Vector{CPU: float64(growA % 5), RAM: float64(growB % 5)})
		fv, fw := s.Fraction(v), s.Fraction(w)
		return fv >= 0 && fv <= 1 && fw >= 0 && fw <= 1 && fw >= fv-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
