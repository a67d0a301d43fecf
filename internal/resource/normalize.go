package resource

import (
	"math"
	"sort"
)

// Scale holds per-kind maxima used to normalize resource quantities into
// [0, 1]. The paper normalizes against "the maximum value of the resource
// from offers or requests of the current block" (Section IV-B), and the
// cluster-level "virtual maximum" M_CL (Section IV-C).
type Scale struct {
	max Vector
}

// NewScale builds a Scale whose per-kind maximum is the componentwise
// maximum over all given vectors. Kinds absent from every vector are
// absent from the scale.
func NewScale(vectors ...Vector) *Scale {
	max := make(Vector)
	for _, v := range vectors {
		for k, q := range v {
			if q > max[k] {
				max[k] = q
			}
		}
	}
	return &Scale{max: max}
}

// Extend folds additional vectors into the scale's maxima.
func (s *Scale) Extend(vectors ...Vector) {
	for _, v := range vectors {
		for k, q := range v {
			if q > s.max[k] {
				s.max[k] = q
			}
		}
	}
}

// Max returns the scale's maximum for kind k (0 when the kind is unknown).
func (s *Scale) Max(k Kind) float64 { return s.max[k] }

// MaxVector returns a copy of the componentwise maxima (the virtual
// maximum M_CL when the scale was built from a cluster's offers).
func (s *Scale) MaxVector() Vector { return s.max.Clone() }

// Kinds returns the kinds known to the scale, sorted.
func (s *Scale) Kinds() []Kind {
	kinds := make([]Kind, 0, len(s.max))
	for k, q := range s.max {
		if q > 0 {
			kinds = append(kinds, k)
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// Normalize maps v into [0,1] per kind: ρ' = ρ / max_k. Kinds with a zero
// or unknown maximum normalize to 0 (they cannot discriminate anything in
// this block anyway).
func (s *Scale) Normalize(v Vector) Vector {
	out := make(Vector, len(v))
	for k, q := range v {
		m := s.max[k]
		if m <= 0 {
			out[k] = 0
			continue
		}
		out[k] = q / m
	}
	return out
}

// Fraction returns ν = ‖v‖₂ / ‖M‖₂, the fraction of the virtual maximum
// that v represents (Section IV-C). It is clamped to [0, 1] so that
// requests exceeding the virtual maximum in some dimension still yield a
// sane payment share. Returns 0 when the scale is empty.
func (s *Scale) Fraction(v Vector) float64 {
	denom := s.max.Norm2()
	if denom <= 0 {
		return 0
	}
	// Only count kinds the scale knows: a request kind no offer provides
	// contributes nothing to the share of the virtual maximum. Iterate in
	// sorted order for bit-identical sums on every verifying node.
	var sum float64
	for _, k := range v.Kinds() {
		if s.max[k] > 0 {
			q := v[k]
			sum += float64(q * q)
		}
	}
	f := math.Sqrt(sum) / denom
	if f > 1 {
		f = 1
	}
	return f
}

// CriticalFraction returns ν_CR = max over critical kinds k of
// ρ_{v,k} / M_CL[k] (Section IV-C): the largest share of any critical
// resource the vector consumes. Kinds absent from the scale are skipped.
// The result is clamped to [0, 1].
func (s *Scale) CriticalFraction(v Vector, critical map[Kind]bool) float64 {
	var frac float64
	for k := range critical {
		m := s.max[k]
		if m <= 0 {
			continue
		}
		if f := v[k] / m; f > frac {
			frac = f
		}
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}
