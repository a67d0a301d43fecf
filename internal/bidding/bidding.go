// Package bidding implements DeCloud's extensible bidding language
// (Sections II-C and IV of the paper): client requests (Eq. 1) and
// provider offers (Eq. 2) over heterogeneous resource vectors, with
// per-resource significance weights, time windows, durations, locations,
// and sealed monetary bids.
package bidding

import (
	"errors"
	"fmt"
	"math"

	"decloud/internal/resource"
)

// ParticipantID identifies a client or provider. In ledger mode it is the
// fingerprint of the participant's public key; in simulation it is any
// unique string.
type ParticipantID string

// OrderID identifies a single request or offer.
type OrderID string

// Location tags an order with where the client wants its edge service to
// run, or where the provider's machine is. The paper allows "either
// geo-location or a network address"; we model both a coordinate (for
// distance-based latency resources) and a symbolic zone.
type Location struct {
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Zone string  `json:"zone,omitempty"`
}

// Distance returns the Euclidean distance between two locations.
func (l Location) Distance(m Location) float64 {
	dx, dy := l.X-m.X, l.Y-m.Y
	return math.Sqrt(float64(dx*dx) + float64(dy*dy))
}

// Request is a client's sealed order for running one container (Eq. 1):
//
//	r := <t_r, [ρ_{r,k}], [σ_{r,k}], t_r⁻, t_r⁺, d_r, b_r, ℓ_r>
//
// Bid is the reported valuation b_r; TrueValue is the private valuation
// v_r. The mechanism reads only Bid — TrueValue exists so that the
// simulator and the truthfulness tests can compute utilities and welfare
// against ground truth. Under DSIC bidding, Bid == TrueValue.
type Request struct {
	ID        OrderID         `json:"id"`
	Client    ParticipantID   `json:"client"`
	Submitted int64           `json:"submitted"` // t_r: submission time (logical or unix)
	Resources resource.Vector `json:"resources"` // ρ_{r,k}: required quantities

	// Weights holds the significance σ_{r,k} ∈ (0,1] of each requested
	// resource kind. A kind absent from Weights defaults to significance 1
	// (strictly required). Kinds present in Weights but not in Resources
	// are ignored.
	Weights map[resource.Kind]float64 `json:"weights,omitempty"`

	Start    int64    `json:"start"`    // t_r⁻: earliest start
	End      int64    `json:"end"`      // t_r⁺: latest finish
	Duration int64    `json:"duration"` // d_r: continuous runtime needed, ≤ End−Start
	Bid      float64  `json:"bid"`      // b_r: reported valuation for the whole duration
	Location Location `json:"location"`

	// Flexibility f ∈ (0,1]: the request accepts offers covering at least
	// f·ρ_{r,k} of every required resource. 1 (or 0, the zero value) means
	// inflexible — the client always gets 100% of requested resources
	// (the paper's first evaluation scenario).
	Flexibility float64 `json:"flexibility,omitempty"`

	// MaxDistance restricts matching to offers whose Location is within
	// this Euclidean distance of the request's Location (0 = anywhere).
	// This is the hard form of the paper's locality preference ℓ_r: an
	// edge service that must run near its users.
	MaxDistance float64 `json:"max_distance,omitempty"`

	// TrueValue is v_r, the client's private valuation. Not part of the
	// wire format in ledger mode.
	TrueValue float64 `json:"-"`
}

// Offer is a provider's sealed order for one computational device (Eq. 2):
//
//	o := <t_o, [ρ_{o,k}], t_o⁻, t_o⁺, b_o, ℓ_o>
//
// Bid is the reported cost b_o; TrueCost is the private cost c_o. The
// mechanism reads only Bid.
type Offer struct {
	ID        OrderID         `json:"id"`
	Provider  ParticipantID   `json:"provider"`
	Submitted int64           `json:"submitted"` // t_o
	Resources resource.Vector `json:"resources"` // ρ_{o,k}: offered capacities
	Start     int64           `json:"start"`     // t_o⁻: availability start
	End       int64           `json:"end"`       // t_o⁺: availability end
	Bid       float64         `json:"bid"`       // b_o: reported cost for the full window
	Location  Location        `json:"location"`

	// MinReputation is the lowest client reputation this provider
	// accepts, in [0, 1]. Zero accepts everyone. Section III-B: providers
	// "may set a threshold for the reputation of the clients that they
	// accept".
	MinReputation float64 `json:"min_reputation,omitempty"`

	// TrueCost is c_o, the provider's private cost. Not on the wire.
	TrueCost float64 `json:"-"`
}

// Errors returned by Validate.
var (
	ErrNoID           = errors.New("bidding: order has no ID")
	ErrNoOwner        = errors.New("bidding: order has no owner")
	ErrNoResources    = errors.New("bidding: order requests/offers no resources")
	ErrBadWindow      = errors.New("bidding: time window is empty or inverted")
	ErrBadDuration    = errors.New("bidding: duration is non-positive or exceeds window")
	ErrNegativeBid    = errors.New("bidding: bid must be a non-negative finite number")
	ErrBadWeight      = errors.New("bidding: significance weights must lie in (0, 1]")
	ErrBadFlexibility = errors.New("bidding: flexibility must lie in (0, 1]")
	ErrBadReputation  = errors.New("bidding: reputation threshold must lie in [0, 1]")
	ErrBadDistance    = errors.New("bidding: max distance must be non-negative")
	ErrBadLocation    = errors.New("bidding: location coordinates must be finite")
)

// finite reports whether both coordinates are finite (x−x is NaN iff x
// is NaN or ±Inf), so that every distance is comparable with a radius.
func (l Location) finite() bool { return !math.IsNaN(l.X-l.X) && !math.IsNaN(l.Y-l.Y) }

// Validate checks structural well-formedness of a request (Const. 12 and
// the definitional constraints of Eq. 1).
func (r *Request) Validate() error {
	if r.ID == "" {
		return ErrNoID
	}
	if r.Client == "" {
		return ErrNoOwner
	}
	if err := r.Resources.Validate(); err != nil {
		return fmt.Errorf("request %s: %w", r.ID, err)
	}
	if r.Resources.IsZero() {
		return fmt.Errorf("request %s: %w", r.ID, ErrNoResources)
	}
	if r.End <= r.Start {
		return fmt.Errorf("request %s: %w", r.ID, ErrBadWindow)
	}
	if r.Duration <= 0 || r.Duration > r.End-r.Start {
		return fmt.Errorf("request %s: %w", r.ID, ErrBadDuration)
	}
	if r.Bid < 0 || math.IsNaN(r.Bid) || math.IsInf(r.Bid, 0) {
		return fmt.Errorf("request %s: %w", r.ID, ErrNegativeBid)
	}
	for k, w := range r.Weights {
		if w <= 0 || w > 1 || math.IsNaN(w) {
			return fmt.Errorf("request %s, kind %s: %w", r.ID, k, ErrBadWeight)
		}
	}
	if f := r.Flexibility; f != 0 && (f <= 0 || f > 1 || math.IsNaN(f)) {
		return fmt.Errorf("request %s: %w", r.ID, ErrBadFlexibility)
	}
	if r.MaxDistance < 0 || math.IsNaN(r.MaxDistance) {
		return fmt.Errorf("request %s: %w", r.ID, ErrBadDistance)
	}
	if !r.Location.finite() {
		return fmt.Errorf("request %s: %w", r.ID, ErrBadLocation)
	}
	return nil
}

// WithinReach reports whether offer o satisfies the request's locality
// constraint: either the request has none, or the offer's location lies
// within MaxDistance.
func (r *Request) WithinReach(o *Offer) bool {
	if r.MaxDistance <= 0 {
		return true
	}
	return r.Location.Distance(o.Location) <= r.MaxDistance
}

// Validate checks structural well-formedness of an offer (Const. 13 and
// the definitional constraints of Eq. 2).
func (o *Offer) Validate() error {
	if o.ID == "" {
		return ErrNoID
	}
	if o.Provider == "" {
		return ErrNoOwner
	}
	if err := o.Resources.Validate(); err != nil {
		return fmt.Errorf("offer %s: %w", o.ID, err)
	}
	if o.Resources.IsZero() {
		return fmt.Errorf("offer %s: %w", o.ID, ErrNoResources)
	}
	if o.End <= o.Start {
		return fmt.Errorf("offer %s: %w", o.ID, ErrBadWindow)
	}
	if o.Bid < 0 || math.IsNaN(o.Bid) || math.IsInf(o.Bid, 0) {
		return fmt.Errorf("offer %s: %w", o.ID, ErrNegativeBid)
	}
	if o.MinReputation < 0 || o.MinReputation > 1 || math.IsNaN(o.MinReputation) {
		return fmt.Errorf("offer %s: %w", o.ID, ErrBadReputation)
	}
	if !o.Location.finite() {
		return fmt.Errorf("offer %s: %w", o.ID, ErrBadLocation)
	}
	return nil
}

// Weight returns σ_{r,k}: the declared weight, defaulting to 1 for any
// requested kind without an explicit entry.
func (r *Request) Weight(k resource.Kind) float64 {
	if w, ok := r.Weights[k]; ok {
		return w
	}
	return 1
}

// Flex returns the effective flexibility: 1 when unset.
func (r *Request) Flex() float64 {
	if r.Flexibility == 0 {
		return 1
	}
	return r.Flexibility
}

// Window returns t_r⁺ − t_r⁻.
func (r *Request) Window() int64 { return r.End - r.Start }

// Window returns t_o⁺ − t_o⁻, the offered availability span.
func (o *Offer) Window() int64 { return o.End - o.Start }

// TimeCompatible reports whether offer o can host request r for its whole
// window: t_o⁻ ≤ t_r⁻ and t_o⁺ ≥ t_r⁺ (Const. 10 and 11).
func TimeCompatible(r *Request, o *Offer) bool {
	return o.Start <= r.Start && o.End >= r.End
}
