// Package futures implements the two-stage futures/spot market: a
// reservation stage sells forward contracts for delivery ReserveHorizon
// rounds ahead — up to OverbookRatio × an offer's declared aggregate
// capacity — and the existing spot mechanism (auction.Run) settles only
// the unreserved remainder plus the fallout of broken reservations.
//
// The scenario follows "Effective Two-Stage Double Auction for Dynamic
// Resource Provision over Edge Networks via Overbooking" (PAPERS.md):
// selling beyond declared capacity bets on demand divergence between
// reservation and delivery. Buyers that no-show and sellers whose
// capacity fails to materialize pay penalty fees to their counterparty;
// in ledger mode those breaks additionally flow through the contract
// registry's deny path, so reputation prices forward reliability.
//
// Determinism invariants (enforced by futures/futurestest):
//   - With the stage disabled (ReserveHorizon = 0) a Round is
//     byte-identical to plain auction.Run over the same orders.
//   - The reservation stage is a pure function of (config, submitted
//     orders, verdicts): price-priority with lexicographic ID
//     tie-breaks, no map iteration reaches an outcome, no clock and no
//     unkeyed randomness is ever read.
//   - Every state transition folds into a SHA-256 hash chain (Head), so
//     two replicas that processed the same rounds agree byte-for-byte.
package futures

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/resource"
)

// Status is the lifecycle state of a reservation.
type Status int

// Reservation lifecycle. Pending → Delivered | NoShow | Defaulted |
// Bumped | Cancelled. Only Delivered moves money at the reserved price;
// every other terminal state moves a penalty from the breaking party to
// its counterparty.
const (
	// Pending awaits its delivery round.
	Pending Status = iota
	// Delivered executed: the buyer pays Payment, the seller hosts.
	Delivered
	// NoShow: the buyer vanished before delivery (demand shock). The
	// buyer pays the penalty; the freed capacity serves other
	// reservations or the spot market.
	NoShow
	// Defaulted: the seller's capacity never materialized (supply
	// shock). The seller pays the penalty; the buyer's request retries
	// in the same round's spot market.
	Defaulted
	// Bumped: the seller materialized but had oversold — the
	// reservation lost the price-priority re-admission into real
	// capacity. The seller pays the penalty; the buyer retries spot.
	Bumped
	// Cancelled: the buyer backed out before delivery. The buyer pays
	// the penalty; the capacity is released for the spot remainder.
	Cancelled
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Pending:
		return "pending"
	case Delivered:
		return "delivered"
	case NoShow:
		return "noshow"
	case Defaulted:
		return "defaulted"
	case Bumped:
		return "bumped"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Reservation is one forward contract: request r hosted on offer o at
// delivery round DueRound, at a unit price fixed when the contract was
// made. Payment = UnitPrice × Load and moves only on delivery.
type Reservation struct {
	Request   *bidding.Request
	Offer     *bidding.Offer
	UnitPrice float64 // price per resource·time unit
	Load      float64 // aggregate resource·time units reserved
	Payment   float64 // UnitPrice × Load
	MadeRound int64
	DueRound  int64
	Status    Status
	// NoShowVerdict and DefaultVerdict are the divergence verdicts
	// attached at reservation time (the workload knows which orders
	// will survive to delivery) and applied only at the delivery round.
	NoShowVerdict  bool
	DefaultVerdict bool

	fo *fwdOffer // capacity bookkeeping back-pointer
}

// fwdOffer tracks one forward offer's sold capacity until delivery.
type fwdOffer struct {
	offer     *bidding.Offer
	defaulted bool
	reserved  resource.Vector // aggregate resource·time reserved per kind
	res       []*Reservation  // in reservation order
}

// fwdRequest is a forward request that holds no reservation (no feasible
// offer, capacity-excluded, or priced out) and therefore shows up — if
// its buyer shows up at all — in its delivery round's spot market.
type fwdRequest struct {
	req    *bidding.Request
	noShow bool
}

// Stats holds the exchange's cumulative conservation counters. Every
// submitted order ends in exactly one terminal bucket (or is still
// live); CheckConservation enforces the identity after every round.
type Stats struct {
	Rounds int64

	// Request fates.
	SubmittedRequests int64 // forward + native spot requests accepted for processing
	RejectedRequests  int64 // failed validation (forward intake or spot intake)
	Delivered         int64 // executed via a delivered reservation
	SpotMatched       int64 // matched in a spot round (native or retried)
	DefaultedRequests int64 // terminal buyer-side breaks: no-shows + cancels
	Expired           int64 // cleared a spot round unmatched

	// Offer fates.
	SubmittedOffers    int64 // forward + native spot offers accepted for processing
	RejectedOffers     int64
	DefaultedOffers    int64 // forward offers whose capacity never materialized
	MaterializedOffers int64 // entered a spot round (native or forward remainder)

	// Reservation events (not fates — a bumped request's fate is decided
	// by its spot retry).
	Reservations   int64 // forward contracts made
	NoShows        int64 // reservations broken by the buyer
	SellerDefaults int64 // reservations broken by a defaulting seller
	Bumps          int64 // reservations broken by overbooking at delivery
	Cancels        int64 // reservations cancelled by the buyer pre-delivery
	PricedOut      int64 // assignments dropped by the uniform price floor

	// Penalty flow, cumulative. Budget balance (Collected == Credited)
	// holds by construction and is property-tested.
	PenaltiesCollected float64
	PenaltiesCredited  float64
}

// Delivery is the settlement of every reservation due in one round.
type Delivery struct {
	Round      int64
	Delivered  []*Reservation
	NoShows    []*Reservation
	Defaults   []*Reservation
	Bumped     []*Reservation
	Unreserved int // forward requests that held no reservation and showed up
	// RetryRequests are the requests of broken reservations (seller
	// default, bump) plus surviving unreserved forwards — the spot
	// market clears them alongside the round's native spot orders.
	RetryRequests []*bidding.Request
	// RemainderOffers are the due forward offers' unreserved capacity,
	// scaled per kind; a fully unreserved offer passes through as the
	// original pointer.
	RemainderOffers []*bidding.Offer
	// PenaltyCollected/Credited are this delivery's penalty flow.
	PenaltyCollected float64
	PenaltyCredited  float64
}

// RoundInput is one round's submissions, pre-split into the forward
// (reservation) and spot stages. Verdict maps carry the demand
// divergence: NoShows marks forward requests whose buyer will not
// appear at delivery, Defaults marks forward offers whose capacity will
// not materialize. Both are applied at the delivery round only.
type RoundInput struct {
	FwdRequests  []*bidding.Request
	FwdOffers    []*bidding.Offer
	SpotRequests []*bidding.Request
	SpotOffers   []*bidding.Offer
	NoShows      map[bidding.OrderID]bool
	Defaults     map[bidding.OrderID]bool
	// Evidence seeds the spot mechanism's randomized exclusion, exactly
	// as auction.Config.Evidence does.
	Evidence []byte
}

// RoundResult is one full two-stage round.
type RoundResult struct {
	Round    int64
	Reserved []*Reservation // forward contracts made this round
	Delivery *Delivery      // settlements due this round (nil if none were due)
	Spot     *auction.Outcome
	// Utilization is the round's realized utilization: delivered
	// resource·time (reservations + spot matches) over the aggregate
	// capacity that actually materialized this round (non-defaulted due
	// forward offers at full declared capacity + native spot offers).
	// 0 when no capacity materialized.
	Utilization float64
	// PenaltyCollected/Credited are the round's penalty flow (delivery
	// breaks + cancels recorded since the previous round).
	PenaltyCollected float64
	PenaltyCredited  float64
}

// Config tunes the two-stage futures/spot market: a reservation stage
// sells forward contracts up to OverbookRatio × declared supply ahead of
// each epoch and the spot auction settles only the unreserved remainder
// plus defaults. All three fields are consensus-critical: every party
// replaying a reservation chain must agree on them. The zero value
// disables the reservation stage entirely (futures/futurestest proves
// the disabled exchange byte-identical to plain auction.Run).
type Config struct {
	// OverbookRatio caps forward sales at this multiple of an offer's
	// declared aggregate capacity (≥ 1.0; values below 1 are read as
	// exactly 1.0, i.e. no overbooking). Selling beyond 1.0 bets on
	// buyer no-shows — reservations that do not fit real capacity at
	// delivery are bumped and the seller pays the penalty.
	OverbookRatio float64
	// PenaltyRate is the fraction of a reservation's payment a breaking
	// party owes its counterparty: defaulting or overbooked-and-bumping
	// sellers pay the buyer, no-show or cancelling buyers pay the
	// seller. Every penalty debited is credited — the flow is budget
	// balanced by construction.
	PenaltyRate float64
	// ReserveHorizon is the number of rounds between reservation and
	// delivery. 0 disables the reservation stage: every order clears
	// spot and the exchange reduces to plain Run.
	ReserveHorizon int
}

// Enabled reports whether the reservation stage runs at all.
func (f Config) Enabled() bool { return f.ReserveHorizon > 0 }

// Ratio returns the effective overbooking ratio (floor 1.0).
func (f Config) Ratio() float64 {
	if f.OverbookRatio < 1 {
		return 1.0
	}
	return f.OverbookRatio
}

// Exchange is the futures market state: pending forward contracts keyed
// by delivery round, per-offer sold-capacity bookkeeping, cumulative
// conservation counters, and the hash-chained head. Not safe for
// concurrent use.
type Exchange struct {
	cfg   auction.Config
	fut   Config
	round int64
	head  [32]byte

	dueRes map[int64][]*Reservation
	dueOff map[int64][]*fwdOffer
	dueReq map[int64][]*fwdRequest
	byReq  map[bidding.OrderID]*Reservation

	// retryIDs marks request IDs the current round's spot stage received
	// from the delivery path, so RecordSpot does not double-count them
	// as fresh submissions.
	retryIDs map[bidding.OrderID]bool
	// remainderIDs marks forward-offer remainders in the spot stage for
	// the same reason.
	remainderIDs map[bidding.OrderID]bool
	// pendingCancelCollected/Credited accumulate penalty flow from
	// Cancel calls between rounds; folded into the next RoundResult.
	pendingCancelCollected float64
	pendingCancelCredited  float64

	// penalties is the net penalty balance per participant
	// (credits − debits); Σ over all parties is 0 by construction.
	penalties map[bidding.ParticipantID]float64

	stats Stats
}

// New builds an exchange. fut configures the reservation stage; cfg
// tunes the spot mechanism exactly as auction.Run does.
func New(cfg auction.Config, fut Config) *Exchange {
	return &Exchange{
		cfg:       cfg,
		fut:       fut,
		dueRes:    make(map[int64][]*Reservation),
		dueOff:    make(map[int64][]*fwdOffer),
		dueReq:    make(map[int64][]*fwdRequest),
		byReq:     make(map[bidding.OrderID]*Reservation),
		penalties: make(map[bidding.ParticipantID]float64),
	}
}

// Round returns the next round number to be executed.
func (ex *Exchange) Round() int64 { return ex.round }

// Head returns the hash-chained state head.
func (ex *Exchange) Head() [32]byte { return ex.head }

// Stats returns a copy of the cumulative counters.
func (ex *Exchange) Stats() Stats { return ex.stats }

// PenaltyBalance returns a participant's net penalty flow
// (credits received − penalties paid).
func (ex *Exchange) PenaltyBalance(id bidding.ParticipantID) float64 {
	return ex.penalties[id]
}

// unitLoad returns the aggregate resource·time a request consumes:
// Σ_k r.Resources[k] × Duration, summed in sorted kind order so the
// float result is deterministic.
func unitLoad(r *bidding.Request) float64 {
	var sum float64
	var buf [8]resource.Kind
	for _, k := range r.Resources.AppendKinds(buf[:0]) {
		sum += r.Resources[k]
	}
	return sum * float64(r.Duration)
}

// offerCapacity returns the aggregate resource·time an offer declares:
// Σ_k o.Resources[k] × Window.
func offerCapacity(o *bidding.Offer) float64 {
	var sum float64
	var buf [8]resource.Kind
	for _, k := range o.Resources.AppendKinds(buf[:0]) {
		sum += o.Resources[k]
	}
	return sum * float64(o.Window())
}

// unitValue is v̂_r in reservation terms: bid per resource·time unit.
func unitValue(r *bidding.Request) float64 { return r.Bid / unitLoad(r) }

// unitCost is ĉ_o: the offer's asking price per resource·time unit.
func unitCost(o *bidding.Offer) float64 { return o.Bid / offerCapacity(o) }

// Reserve clears the round's forward stage: a deterministic
// price-priority allocation of forward requests onto forward offers for
// delivery ReserveHorizon rounds ahead, with aggregate capacity sold up
// to OverbookRatio × declared. Pricing is uniform-floor: every contract
// pays max(ĉ of its offer, the highest v̂ among capacity-excluded
// requests), which keeps the buyer side truthful — a bid moves priority
// and the trade/no-trade margin, never the price paid below the floor.
// Assignments whose floor exceeds the buyer's own v̂ are dropped
// (individual rationality), joining the unreserved pool that shows up
// in the delivery round's spot market.
//
// Invalid orders are rejected; with the stage disabled every forward
// order is rejected as a misrouting (callers must send orders spot).
func (ex *Exchange) Reserve(in RoundInput) []*Reservation {
	if !ex.fut.Enabled() || (len(in.FwdRequests) == 0 && len(in.FwdOffers) == 0) {
		return nil
	}
	due := ex.round + int64(ex.fut.ReserveHorizon)
	ratio := ex.fut.Ratio()

	// Intake: validate, then sort offers by (ĉ asc, ID) and requests by
	// (v̂ desc, ID) — price priority with deterministic tie-breaks.
	var fos []*fwdOffer
	for _, o := range in.FwdOffers {
		ex.stats.SubmittedOffers++
		if o.Validate() != nil {
			ex.stats.RejectedOffers++
			continue
		}
		fos = append(fos, &fwdOffer{
			offer:     o,
			defaulted: in.Defaults[o.ID],
			reserved:  resource.Vector{},
		})
	}
	sort.Slice(fos, func(i, j int) bool {
		ci, cj := unitCost(fos[i].offer), unitCost(fos[j].offer)
		if ci != cj {
			return ci < cj
		}
		return fos[i].offer.ID < fos[j].offer.ID
	})
	var reqs []*bidding.Request
	for _, r := range in.FwdRequests {
		ex.stats.SubmittedRequests++
		if r.Validate() != nil {
			ex.stats.RejectedRequests++
			continue
		}
		reqs = append(reqs, r)
	}
	sort.Slice(reqs, func(i, j int) bool {
		vi, vj := unitValue(reqs[i]), unitValue(reqs[j])
		if vi != vj {
			return vi > vj
		}
		return reqs[i].ID < reqs[j].ID
	})

	// Greedy placement in priority order: each request lands on the
	// cheapest compatible offer with overbookable room left. A request
	// that found a compatible offer but no room is capacity-excluded;
	// the highest such v̂ becomes the uniform price floor.
	type placement struct {
		r  *bidding.Request
		fo *fwdOffer
	}
	var placed []placement
	var unplaced []*bidding.Request
	var excludedHigh float64
	for _, r := range reqs {
		v := unitValue(r)
		var target *fwdOffer
		sawFull := false
		for _, fo := range fos {
			o := fo.offer
			if !bidding.TimeCompatible(r, o) || !r.WithinReach(o) {
				continue
			}
			if !o.Resources.Covers(r.Resources) {
				continue // a single grant never exceeds the machine
			}
			if ex.cfg.Reputation != nil && o.MinReputation > 0 &&
				ex.cfg.Reputation.Score(r.Client) < o.MinReputation {
				continue
			}
			if v < unitCost(o) {
				break // offers are ĉ-ascending: no profitable offer remains
			}
			if !fitsOverbooked(fo, r, ratio) {
				sawFull = true
				continue
			}
			target = fo
			break
		}
		if target == nil {
			if sawFull && v > excludedHigh {
				excludedHigh = v
			}
			unplaced = append(unplaced, r)
			continue
		}
		reserveLoad(target, r)
		placed = append(placed, placement{r: r, fo: target})
	}

	// Price and commit. The floor never reads the buyer's own bid; a
	// floor above the buyer's v̂ kills the marginal contract instead of
	// charging beyond the bid.
	var made []*Reservation
	for _, p := range placed {
		price := unitCost(p.fo.offer)
		if excludedHigh > price {
			price = excludedHigh
		}
		if price > unitValue(p.r) {
			releaseLoad(p.fo, p.r)
			ex.stats.PricedOut++
			unplaced = append(unplaced, p.r)
			continue
		}
		load := unitLoad(p.r)
		res := &Reservation{
			Request:        p.r,
			Offer:          p.fo.offer,
			UnitPrice:      price,
			Load:           load,
			Payment:        price * load,
			MadeRound:      ex.round,
			DueRound:       due,
			Status:         Pending,
			NoShowVerdict:  in.NoShows[p.r.ID],
			DefaultVerdict: p.fo.defaulted,
			fo:             p.fo,
		}
		p.fo.res = append(p.fo.res, res)
		ex.byReq[p.r.ID] = res
		ex.dueRes[due] = append(ex.dueRes[due], res)
		made = append(made, res)
		ex.stats.Reservations++
	}
	for _, fo := range fos {
		ex.dueOff[due] = append(ex.dueOff[due], fo)
	}
	// unplaced preserves priority order, which is deterministic; re-sort
	// by ID so delivery-round retry order is independent of the pricing
	// pass's internal ordering.
	sort.Slice(unplaced, func(i, j int) bool { return unplaced[i].ID < unplaced[j].ID })
	for _, r := range unplaced {
		ex.dueReq[due] = append(ex.dueReq[due], &fwdRequest{req: r, noShow: in.NoShows[r.ID]})
	}
	return made
}

// fitsOverbooked reports whether r's aggregate load still fits offer
// fo's remaining overbookable capacity on every kind.
func fitsOverbooked(fo *fwdOffer, r *bidding.Request, ratio float64) bool {
	window := float64(fo.offer.Window())
	dur := float64(r.Duration)
	var buf [8]resource.Kind
	for _, k := range r.Resources.AppendKinds(buf[:0]) {
		if fo.reserved[k]+r.Resources[k]*dur > ratio*fo.offer.Resources[k]*window {
			return false
		}
	}
	return true
}

func reserveLoad(fo *fwdOffer, r *bidding.Request) {
	dur := float64(r.Duration)
	var buf [8]resource.Kind
	for _, k := range r.Resources.AppendKinds(buf[:0]) {
		fo.reserved[k] += r.Resources[k] * dur
	}
}

func releaseLoad(fo *fwdOffer, r *bidding.Request) {
	dur := float64(r.Duration)
	var buf [8]resource.Kind
	for _, k := range r.Resources.AppendKinds(buf[:0]) {
		fo.reserved[k] -= r.Resources[k] * dur
		if fo.reserved[k] < 0 {
			fo.reserved[k] = 0
		}
	}
}

// Cancel backs the buyer out of a pending reservation: the buyer pays
// the penalty, the capacity is released, and the contract is terminal.
func (ex *Exchange) Cancel(requestID bidding.OrderID) error {
	res, ok := ex.byReq[requestID]
	if !ok || res.Status != Pending {
		return fmt.Errorf("futures: no pending reservation for request %s", requestID)
	}
	res.Status = Cancelled
	releaseLoad(res.fo, res.Request)
	delete(ex.byReq, requestID)
	pen := ex.fut.PenaltyRate * res.Payment
	ex.payPenalty(res.Request.Client, res.Offer.Provider, pen)
	ex.pendingCancelCollected += pen
	ex.pendingCancelCredited += pen
	ex.stats.Cancels++
	ex.stats.DefaultedRequests++
	return nil
}

// payPenalty moves pen from debtor to creditor in the balance map and
// the cumulative counters.
func (ex *Exchange) payPenalty(debtor, creditor bidding.ParticipantID, pen float64) {
	ex.penalties[debtor] -= pen
	ex.penalties[creditor] += pen
	ex.stats.PenaltiesCollected += pen
	ex.stats.PenaltiesCredited += pen
}

// Deliver settles every reservation due at the current round: seller
// defaults fail all their contracts, no-show buyers forfeit theirs, and
// the survivors re-enter real (1.0×) capacity in price-priority order —
// the overflow of an overbooked offer is bumped. Broken-contract
// requests and surviving unreserved forwards retry in this round's spot
// market; unreserved offer capacity joins it as remainder offers.
func (ex *Exchange) Deliver() *Delivery {
	fos := ex.dueOff[ex.round]
	frs := ex.dueReq[ex.round]
	if len(fos) == 0 && len(frs) == 0 && len(ex.dueRes[ex.round]) == 0 {
		return nil
	}
	delete(ex.dueOff, ex.round)
	delete(ex.dueReq, ex.round)
	delete(ex.dueRes, ex.round)
	d := &Delivery{Round: ex.round}
	penalty := func(debtor, creditor bidding.ParticipantID, res *Reservation) {
		pen := ex.fut.PenaltyRate * res.Payment
		ex.payPenalty(debtor, creditor, pen)
		d.PenaltyCollected += pen
		d.PenaltyCredited += pen
	}
	for _, fo := range fos {
		// Partition the offer's contracts; cancelled ones are already
		// terminal and hold no capacity.
		var live []*Reservation
		for _, res := range fo.res {
			if res.Status != Pending {
				continue
			}
			delete(ex.byReq, res.Request.ID)
			switch {
			case fo.defaulted:
				res.Status = Defaulted
				penalty(res.Offer.Provider, res.Request.Client, res)
				ex.stats.SellerDefaults++
				d.Defaults = append(d.Defaults, res)
				if !res.NoShowVerdict {
					d.RetryRequests = append(d.RetryRequests, res.Request)
				} else {
					ex.stats.DefaultedRequests++
					ex.stats.NoShows++
				}
			case res.NoShowVerdict:
				res.Status = NoShow
				penalty(res.Request.Client, res.Offer.Provider, res)
				ex.stats.NoShows++
				ex.stats.DefaultedRequests++
				d.NoShows = append(d.NoShows, res)
			default:
				live = append(live, res)
			}
		}
		if fo.defaulted {
			ex.stats.DefaultedOffers++
			continue // the capacity never materialized: nothing enters spot
		}
		// Re-admit survivors into REAL capacity in price priority
		// (v̂ desc, ID) — the order they were reserved in is already
		// priority order within this offer, but no-shows freed room, so
		// recompute the packing from zero.
		sort.Slice(live, func(i, j int) bool {
			vi, vj := unitValue(live[i].Request), unitValue(live[j].Request)
			if vi != vj {
				return vi > vj
			}
			return live[i].Request.ID < live[j].Request.ID
		})
		realUsed := resource.Vector{}
		window := float64(fo.offer.Window())
		for _, res := range live {
			if fits(realUsed, res.Request, fo.offer, window) {
				addLoad(realUsed, res.Request)
				res.Status = Delivered
				ex.stats.Delivered++
				d.Delivered = append(d.Delivered, res)
			} else {
				res.Status = Bumped
				penalty(res.Offer.Provider, res.Request.Client, res)
				ex.stats.Bumps++
				d.Bumped = append(d.Bumped, res)
				d.RetryRequests = append(d.RetryRequests, res.Request)
			}
		}
		ex.stats.MaterializedOffers++
		if rem := remainderOffer(fo.offer, realUsed, window); rem != nil {
			d.RemainderOffers = append(d.RemainderOffers, rem)
		}
	}
	for _, fr := range frs {
		d.Unreserved++
		if fr.noShow {
			ex.stats.DefaultedRequests++
			ex.stats.NoShows++
			continue
		}
		d.RetryRequests = append(d.RetryRequests, fr.req)
	}
	// Deterministic spot intake order for the retries: by ID.
	sort.Slice(d.RetryRequests, func(i, j int) bool {
		return d.RetryRequests[i].ID < d.RetryRequests[j].ID
	})
	return d
}

func fits(used resource.Vector, r *bidding.Request, o *bidding.Offer, window float64) bool {
	dur := float64(r.Duration)
	var buf [8]resource.Kind
	for _, k := range r.Resources.AppendKinds(buf[:0]) {
		if used[k]+r.Resources[k]*dur > o.Resources[k]*window {
			return false
		}
	}
	return true
}

func addLoad(used resource.Vector, r *bidding.Request) {
	dur := float64(r.Duration)
	var buf [8]resource.Kind
	for _, k := range r.Resources.AppendKinds(buf[:0]) {
		used[k] += r.Resources[k] * dur
	}
}

// remainderOffer scales the offer's declared vector down to the
// capacity its delivered reservations left over. A fully unreserved
// offer is passed through as the ORIGINAL pointer — the delta
// settlement must not perturb untouched orders. nil when nothing
// meaningful remains.
func remainderOffer(o *bidding.Offer, used resource.Vector, window float64) *bidding.Offer {
	if used.IsZero() {
		return o
	}
	rem := resource.Vector{}
	var buf [8]resource.Kind
	for _, k := range o.Resources.AppendKinds(buf[:0]) {
		left := o.Resources[k] - used[k]/window
		if left > 0 {
			rem[k] = left
		}
	}
	if rem.IsZero() {
		return nil
	}
	fresh := *o
	fresh.Resources = rem
	// The asking price shrinks with the capacity, keeping ĉ constant:
	// the provider's marginal cost per unit does not change because
	// part of the machine is reserved.
	fresh.Bid = o.Bid * (offerCapacity(&fresh) / offerCapacity(o))
	fresh.TrueCost = o.TrueCost * (offerCapacity(&fresh) / offerCapacity(o))
	return &fresh
}

// SpotMarket composes the round's spot inputs: native spot orders plus
// the delivery fallout. With the stage disabled this is the identity on
// the native orders — the same pointers, in the same order.
func (ex *Exchange) SpotMarket(d *Delivery, spotR []*bidding.Request, spotO []*bidding.Offer) ([]*bidding.Request, []*bidding.Offer) {
	ex.retryIDs = nil
	ex.remainderIDs = nil
	if d == nil {
		return spotR, spotO
	}
	reqs := spotR
	offs := spotO
	if len(d.RetryRequests) > 0 {
		ex.retryIDs = make(map[bidding.OrderID]bool, len(d.RetryRequests))
		reqs = append(append([]*bidding.Request{}, spotR...), d.RetryRequests...)
		for _, r := range d.RetryRequests {
			ex.retryIDs[r.ID] = true
		}
	}
	if len(d.RemainderOffers) > 0 {
		ex.remainderIDs = make(map[bidding.OrderID]bool, len(d.RemainderOffers))
		offs = append(append([]*bidding.Offer{}, spotO...), d.RemainderOffers...)
		for _, o := range d.RemainderOffers {
			ex.remainderIDs[o.ID] = true
		}
	}
	return reqs, offs
}

// RecordSpot folds a committed spot outcome into the fate counters and
// the hash chain, and advances the round. reqs/offs must be exactly
// what the spot stage cleared (the slices SpotMarket returned).
func (ex *Exchange) RecordSpot(res *RoundResult, out *auction.Outcome, reqs []*bidding.Request, offs []*bidding.Offer) {
	rejectedR := make(map[bidding.OrderID]bool, len(out.RejectedRequests))
	for _, id := range out.RejectedRequests {
		rejectedR[id] = true
	}
	rejectedO := make(map[bidding.OrderID]bool, len(out.RejectedOffers))
	for _, id := range out.RejectedOffers {
		rejectedO[id] = true
	}
	matched := make(map[bidding.OrderID]bool, len(out.Matches))
	for i := range out.Matches {
		matched[out.Matches[i].Request.ID] = true
	}
	for _, r := range reqs {
		retry := ex.retryIDs[r.ID]
		if !retry {
			ex.stats.SubmittedRequests++
		}
		switch {
		case matched[r.ID]:
			ex.stats.SpotMatched++
		case rejectedR[r.ID] && !retry:
			ex.stats.RejectedRequests++
		default:
			ex.stats.Expired++
		}
	}
	for _, o := range offs {
		if ex.remainderIDs[o.ID] {
			continue // counted Materialized at delivery
		}
		ex.stats.SubmittedOffers++
		if rejectedO[o.ID] {
			ex.stats.RejectedOffers++
		} else {
			ex.stats.MaterializedOffers++
		}
	}
	ex.retryIDs = nil
	ex.remainderIDs = nil
	ex.stats.Rounds++

	res.Spot = out
	res.PenaltyCollected += ex.pendingCancelCollected
	res.PenaltyCredited += ex.pendingCancelCredited
	ex.pendingCancelCollected, ex.pendingCancelCredited = 0, 0
	if res.Delivery != nil {
		res.PenaltyCollected += res.Delivery.PenaltyCollected
		res.PenaltyCredited += res.Delivery.PenaltyCredited
	}
	res.Utilization = ex.utilization(res, out, offs)
	ex.chain(res, out)
	ex.round++
}

// utilization computes realized utilization for the round: matched
// resource·time over materialized capacity. Materialized capacity is
// every offer the spot stage saw (remainders count at their FULL
// declared capacity via the delivered load they already host) — i.e.
// non-defaulted supply present this round.
func (ex *Exchange) utilization(res *RoundResult, out *auction.Outcome, offs []*bidding.Offer) float64 {
	var capacity, used float64
	for _, o := range offs {
		capacity += offerCapacity(o)
	}
	if res.Delivery != nil {
		// Delivered reservations occupy capacity the remainder offers no
		// longer declare; add both sides back.
		for _, r := range res.Delivery.Delivered {
			capacity += r.Load
			used += r.Load
		}
	}
	for i := range out.Matches {
		m := &out.Matches[i]
		var buf [8]resource.Kind
		dur := float64(m.Request.Duration)
		for _, k := range m.Granted.AppendKinds(buf[:0]) {
			used += m.Granted[k] * dur
		}
	}
	if capacity <= 0 {
		return 0
	}
	return used / capacity
}

// Run executes one full two-stage round in-process: reserve → deliver →
// spot (auction.Run) → record. With the reservation stage disabled and
// all orders routed spot, the result's Spot outcome is byte-identical
// to plain auction.Run over the same orders — the futurestest identity.
func (ex *Exchange) Run(in RoundInput) *RoundResult {
	res := &RoundResult{Round: ex.round}
	res.Reserved = ex.Reserve(in)
	res.Delivery = ex.Deliver()
	reqs, offs := ex.SpotMarket(res.Delivery, in.SpotRequests, in.SpotOffers)
	acfg := ex.cfg
	acfg.Evidence = in.Evidence
	out := auction.Run(reqs, offs, acfg)
	ex.RecordSpot(res, out, reqs, offs)
	return res
}

// Live returns the count of pending reservations plus unreserved
// forward requests awaiting their delivery round.
func (ex *Exchange) Live() (requests, offers int64) {
	for _, list := range ex.dueRes {
		for _, r := range list {
			if r.Status == Pending {
				requests++
			}
		}
	}
	for _, list := range ex.dueReq {
		requests += int64(len(list))
	}
	for _, list := range ex.dueOff {
		offers += int64(len(list))
	}
	return requests, offers
}

// CheckConservation audits the exchange's conservation identity:
//
//	submitted == rejected + delivered + spot-matched + defaulted +
//	             expired + live
//
// on the request side, and the offer-side analogue, plus penalty budget
// balance. An error here means an order fell through the lifecycle.
func (ex *Exchange) CheckConservation() error {
	liveR, liveO := ex.Live()
	s := ex.stats
	gotR := s.RejectedRequests + s.Delivered + s.SpotMatched +
		s.DefaultedRequests + s.Expired + liveR
	if gotR != s.SubmittedRequests {
		return fmt.Errorf("futures: request conservation broken: rejected %d + delivered %d + spot %d + defaulted %d + expired %d + live %d = %d, want submitted %d",
			s.RejectedRequests, s.Delivered, s.SpotMatched, s.DefaultedRequests, s.Expired, liveR, gotR, s.SubmittedRequests)
	}
	gotO := s.RejectedOffers + s.DefaultedOffers + s.MaterializedOffers + liveO
	if gotO != s.SubmittedOffers {
		return fmt.Errorf("futures: offer conservation broken: rejected %d + defaulted %d + materialized %d + live %d = %d, want submitted %d",
			s.RejectedOffers, s.DefaultedOffers, s.MaterializedOffers, liveO, gotO, s.SubmittedOffers)
	}
	if s.PenaltiesCollected != s.PenaltiesCredited {
		return fmt.Errorf("futures: penalty flow unbalanced: collected %.9g, credited %.9g",
			s.PenaltiesCollected, s.PenaltiesCredited)
	}
	var net float64
	for _, v := range ex.penalties {
		net += v
	}
	if net > 1e-6 || net < -1e-6 {
		return fmt.Errorf("futures: net penalty balance %.9g, want 0", net)
	}
	return nil
}

// chain folds the round transition into the hash-chained head: the
// round number, every contract made, every settlement verdict, the
// canonical spot outcome bytes, and the penalty flow.
func (ex *Exchange) chain(res *RoundResult, out *auction.Outcome) {
	var b strings.Builder
	fmt.Fprintf(&b, "round %d\n", res.Round)
	for _, r := range res.Reserved {
		fmt.Fprintf(&b, "reserve %s %s %.9g %.9g %v %v\n",
			r.Request.ID, r.Offer.ID, r.UnitPrice, r.Payment, r.NoShowVerdict, r.DefaultVerdict)
	}
	if d := res.Delivery; d != nil {
		for _, set := range [][]*Reservation{d.Delivered, d.NoShows, d.Defaults, d.Bumped} {
			for _, r := range set {
				fmt.Fprintf(&b, "settle %s %s\n", r.Request.ID, r.Status)
			}
		}
	}
	spotBytes, err := json.Marshal(out)
	if err != nil {
		// The outcome is a plain data struct; Marshal cannot fail on it.
		panic(fmt.Sprintf("futures: marshal outcome: %v", err))
	}
	spotSum := sha256.Sum256(spotBytes)
	fmt.Fprintf(&b, "spot %x\n", spotSum)
	fmt.Fprintf(&b, "penalty %.9g %.9g\n", res.PenaltyCollected, res.PenaltyCredited)
	h := sha256.New()
	h.Write(ex.head[:])
	h.Write([]byte(b.String()))
	copy(ex.head[:], h.Sum(nil))
}

// RequestLoad exposes the aggregate resource·time a request consumes —
// the unit the reservation stage prices in.
func RequestLoad(r *bidding.Request) float64 { return unitLoad(r) }

// OfferCapacity exposes the aggregate resource·time an offer declares.
func OfferCapacity(o *bidding.Offer) float64 { return offerCapacity(o) }

// GrantedLoad is the resource·time a spot match actually occupies.
func GrantedLoad(m *auction.Match) float64 {
	var sum float64
	var buf [8]resource.Kind
	for _, k := range m.Granted.AppendKinds(buf[:0]) {
		sum += m.Granted[k]
	}
	return sum * float64(m.Request.Duration)
}

// DeliveredWelfare is the true-value welfare the delivery realized:
// Σ over delivered reservations of TrueValue minus the share of the
// offer's true cost the reservation's load occupies.
func (d *Delivery) DeliveredWelfare() float64 {
	if d == nil {
		return 0
	}
	var w float64
	for _, res := range d.Delivered {
		w += res.Request.TrueValue - res.Offer.TrueCost*(res.Load/offerCapacity(res.Offer))
	}
	return w
}

// DeliveredPayments sums the payments the delivery moved.
func (d *Delivery) DeliveredPayments() float64 {
	if d == nil {
		return 0
	}
	var p float64
	for _, res := range d.Delivered {
		p += res.Payment
	}
	return p
}
