// Package contract simulates the smart contract through which DeCloud
// participants enter agreements (Section III-B). After a block's
// allocation is accepted by the miner network, each match becomes a
// proposed Agreement; the client calls Accept to bind it or Deny to
// refuse (triggering a reputational penalty and freeing the provider to
// resubmit its offer). The contract checks — as the paper's smart
// contract does — that the allocation exists in the referenced block and
// that the caller is the client named in it.
package contract

import (
	"errors"
	"fmt"
	"sync"

	"decloud/internal/bidding"
	"decloud/internal/ledger"
	"decloud/internal/reputation"
)

// Status is the lifecycle state of an agreement.
type Status int

// Agreement lifecycle: Proposed → Agreed | Denied.
const (
	Proposed Status = iota
	Agreed
	Denied
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Proposed:
		return "proposed"
	case Agreed:
		return "agreed"
	case Denied:
		return "denied"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// AgreementID identifies an agreement: block height + request ID.
type AgreementID string

// Agreement is one proposed client↔provider engagement.
type Agreement struct {
	ID          AgreementID
	BlockHeight int64
	Record      ledger.AllocationRecord
	Status      Status
}

// Client returns the client party.
func (a *Agreement) Client() bidding.ParticipantID {
	return bidding.ParticipantID(a.Record.Client)
}

// Provider returns the provider party.
func (a *Agreement) Provider() bidding.ParticipantID {
	return bidding.ParticipantID(a.Record.Provider)
}

// Errors returned by contract methods.
var (
	ErrNotFound       = errors.New("contract: agreement not found")
	ErrNotClient      = errors.New("contract: caller is not the client of this agreement")
	ErrAlreadyDecided = errors.New("contract: agreement already decided")
)

// Registry is the contract state: all agreements, indexed, plus the
// reputation store penalizing denials. Safe for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	agreements map[AgreementID]*Agreement
	reputation *reputation.Store
}

// NewRegistry creates a registry backed by the given reputation store
// (nil creates a private one).
func NewRegistry(rep *reputation.Store) *Registry {
	if rep == nil {
		rep = reputation.NewStore()
	}
	return &Registry{
		agreements: make(map[AgreementID]*Agreement),
		reputation: rep,
	}
}

// Reputation exposes the backing reputation store.
func (r *Registry) Reputation() *reputation.Store { return r.reputation }

// agreementID derives the canonical ID.
func agreementID(height int64, requestID string) AgreementID {
	return AgreementID(fmt.Sprintf("%d/%s", height, requestID))
}

// ProposeFromBlock registers every allocation record of a block as a
// proposed agreement and returns the new IDs in record order.
func (r *Registry) ProposeFromBlock(height int64, records []ledger.AllocationRecord) []AgreementID {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]AgreementID, 0, len(records))
	for _, rec := range records {
		id := agreementID(height, rec.RequestID)
		r.agreements[id] = &Agreement{
			ID:          id,
			BlockHeight: height,
			Record:      rec,
			Status:      Proposed,
		}
		ids = append(ids, id)
	}
	return ids
}

// Get returns a copy of the agreement.
func (r *Registry) Get(id AgreementID) (Agreement, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.agreements[id]
	if !ok {
		return Agreement{}, ErrNotFound
	}
	return *a, nil
}

// Accept is the contract's accept method: the named client binds the
// agreement. The caller must be the client recorded in the allocation.
func (r *Registry) Accept(id AgreementID, caller bidding.ParticipantID) error {
	if err := r.decide(id, caller, Agreed); err != nil {
		return err
	}
	r.reputation.RecordAccept(caller)
	return nil
}

// Deny is the contract's deny method: the client refuses the allocation.
// It returns the provider that must be notified to resubmit its offer
// (Section III-B) and applies the reputational penalty.
func (r *Registry) Deny(id AgreementID, caller bidding.ParticipantID) (bidding.ParticipantID, error) {
	return r.DenyInto(id, caller, r.reputation)
}

// DenyInto is Deny with the reputational penalty recorded in an
// explicit store (nil falls back to the registry's own). A federation
// routes the penalty of a denied SPILLED match here: the agreement
// settles on the metro that cleared it, but the client's standing must
// decay on its ORIGIN metro — the exchange its future requests home to.
func (r *Registry) DenyInto(id AgreementID, caller bidding.ParticipantID, rep *reputation.Store) (bidding.ParticipantID, error) {
	if err := r.decide(id, caller, Denied); err != nil {
		return "", err
	}
	if rep == nil {
		rep = r.reputation
	}
	rep.RecordDeny(caller)
	a, _ := r.Get(id)
	return a.Provider(), nil
}

// decide moves a proposed agreement to status on behalf of its client.
func (r *Registry) decide(id AgreementID, caller bidding.ParticipantID, status Status) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.agreements[id]
	if !ok {
		return ErrNotFound
	}
	if a.Client() != caller {
		return ErrNotClient
	}
	if a.Status != Proposed {
		return ErrAlreadyDecided
	}
	a.Status = status
	return nil
}

// CountByStatus tallies agreements per status.
func (r *Registry) CountByStatus() map[Status]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[Status]int)
	for _, a := range r.agreements {
		out[a.Status]++
	}
	return out
}
