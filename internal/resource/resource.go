// Package resource defines the typed resource vectors that DeCloud's
// bidding language is built on (Section IV of the paper).
//
// A resource Kind k ∈ K can represent anything a client may care about:
// classic machine capacity (CPU cores, RAM, disk), network properties
// (latency budget, bandwidth), or "generic properties essential for edge
// computing" such as the presence of an SGX enclave or a provider
// reputation floor, which the paper treats as just another resource
// (Section II-C). Quantities are non-negative float64 values.
package resource

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Kind identifies a resource type k ∈ K.
type Kind string

// Well-known resource kinds. The set is open: applications may introduce
// their own kinds, and the mechanism treats all kinds uniformly.
const (
	CPU       Kind = "cpu"       // cores (may be fractional)
	RAM       Kind = "ram"       // GiB
	Disk      Kind = "disk"      // GiB
	Bandwidth Kind = "bandwidth" // Mbit/s
	Latency   Kind = "latency"   // tolerance score: higher = stricter proximity requirement served
	GPU       Kind = "gpu"       // device count
	SGX       Kind = "sgx"       // 1 if a trusted execution environment is present/required
	Repute    Kind = "repute"    // minimum provider reputation, [0,1]
)

// DefaultCritical is the paper's base set of critical resource kinds
// K_CR (Section IV-C): if a request saturates any of these on a machine,
// no other container can realistically share that machine, so the request
// must carry the corresponding share of the clearing price.
func DefaultCritical() map[Kind]bool {
	return map[Kind]bool{CPU: true, RAM: true, Disk: true}
}

// Vector is a sparse resource vector: quantities ρ indexed by Kind.
// The zero value (nil map) is a usable empty vector for reads; use
// make(Vector) or a composite literal before writing.
type Vector map[Kind]float64

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	out := make(Vector, len(v))
	for k, q := range v {
		out[k] = q
	}
	return out
}

// Kinds returns the kinds present in v with a strictly positive quantity,
// sorted lexicographically for deterministic iteration.
func (v Vector) Kinds() []Kind {
	return v.AppendKinds(make([]Kind, 0, len(v)))
}

// AppendKinds appends the kinds present in v with a strictly positive
// quantity to buf, sorted lexicographically, and returns the extended
// slice. Hot callers pass a stack buffer (`var b [8]Kind; v.AppendKinds(b[:0])`)
// to iterate deterministically without heap allocation.
func (v Vector) AppendKinds(buf []Kind) []Kind {
	base := len(buf)
	for k, q := range v {
		if q > 0 {
			buf = append(buf, k)
		}
	}
	slices.Sort(buf[base:])
	return buf
}

// IsZero reports whether the vector has no positive component.
func (v Vector) IsZero() bool {
	for _, q := range v {
		if q > 0 {
			return false
		}
	}
	return true
}

// Norm2 returns the Euclidean norm ‖v‖₂ of the vector. Components are
// accumulated in sorted kind order: floating-point addition is not
// associative, and consensus-critical callers need bit-identical results
// on every node regardless of map iteration order.
func (v Vector) Norm2() float64 {
	var buf [kindBufCap]Kind
	var sum float64
	for _, k := range v.AppendKinds(buf[:0]) {
		q := v[k]
		sum += float64(q * q)
	}
	return math.Sqrt(sum)
}

// Add returns v + w as a new vector.
func (v Vector) Add(w Vector) Vector {
	out := v.Clone()
	if out == nil {
		out = make(Vector, len(w))
	}
	for k, q := range w {
		out[k] += q
	}
	return out
}

// Scale returns s·v as a new vector.
func (v Vector) Scale(s float64) Vector {
	out := make(Vector, len(v))
	for k, q := range v {
		out[k] = q * s
	}
	return out
}

// SubScaledInPlace mutates v to v − s·w componentwise, clamping each
// touched component at zero, without allocating an intermediate vector.
// v must be non-nil.
func (v Vector) SubScaledInPlace(w Vector, s float64) {
	for k, q := range w {
		r := v[k] - float64(q*s)
		if r < 0 {
			r = 0
		}
		v[k] = r
	}
}

// CoversFraction reports whether v covers frac·need componentwise.
// frac < 1 models a flexible request willing to accept a partial match
// (Section V's flexibility experiments).
func (v Vector) CoversFraction(need Vector, frac float64) bool {
	for k, q := range need {
		if q <= 0 {
			continue
		}
		if v[k] < CoverThreshold(q, frac) {
			return false
		}
	}
	return true
}

// CoverThreshold is the exact comparison threshold CoversFraction applies
// to a needed quantity q at flexibility frac: an offer quantity below it
// fails the cover. Exported so the indexed matcher can precompute
// per-request thresholds that reproduce CoversFraction's decisions
// float-for-float — consensus requires the pruned path and the reference
// path to agree on every borderline pair.
func CoverThreshold(q, frac float64) float64 { return float64(q*frac) - epsilon }

// CommonKinds returns K_v ∩ K_w: kinds with positive quantity in both
// vectors, sorted for determinism.
func (v Vector) CommonKinds(w Vector) []Kind {
	var kinds []Kind
	for k, q := range v {
		if q > 0 && w[k] > 0 {
			kinds = append(kinds, k)
		}
	}
	slices.Sort(kinds)
	return kinds
}

// Equal reports componentwise equality of positive components within a
// small absolute tolerance.
func (v Vector) Equal(w Vector) bool {
	for k, q := range v {
		if math.Abs(q-w[k]) > epsilon {
			return false
		}
	}
	for k, q := range w {
		if math.Abs(q-v[k]) > epsilon {
			return false
		}
	}
	return true
}

// Validate checks that every component is finite and non-negative.
func (v Vector) Validate() error {
	for k, q := range v {
		if k == "" {
			return fmt.Errorf("resource: empty kind name")
		}
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return fmt.Errorf("resource: kind %q has non-finite quantity %v", k, q)
		}
		if q < 0 {
			return fmt.Errorf("resource: kind %q has negative quantity %v", k, q)
		}
	}
	return nil
}

// String renders the vector deterministically, e.g. "cpu=4 ram=16".
func (v Vector) String() string {
	kinds := make([]Kind, 0, len(v))
	for k := range v {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	var b strings.Builder
	for i, k := range kinds {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%g", k, v[k])
	}
	return b.String()
}

const epsilon = 1e-9

// kindBufCap sizes stack buffers for AppendKinds in hot paths: real
// vectors carry at most the 8 well-known kinds plus a couple of custom
// ones; AppendKinds spills to the heap transparently past this.
const kindBufCap = 16
