package contract

import (
	"errors"
	"testing"

	"decloud/internal/ledger"
	"decloud/internal/reputation"
)

func records() []ledger.AllocationRecord {
	return []ledger.AllocationRecord{
		{RequestID: "r1", OfferID: "o1", Client: "alice", Provider: "p1", Payment: 5},
		{RequestID: "r2", OfferID: "o1", Client: "bob", Provider: "p1", Payment: 3},
	}
}

func TestProposeFromBlock(t *testing.T) {
	reg := NewRegistry(nil)
	ids := reg.ProposeFromBlock(7, records())
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
	a, err := reg.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != Proposed || a.BlockHeight != 7 || a.Client() != "alice" || a.Provider() != "p1" {
		t.Fatalf("agreement = %+v", a)
	}
}

func TestAcceptFlow(t *testing.T) {
	reg := NewRegistry(nil)
	ids := reg.ProposeFromBlock(1, records())
	if err := reg.Accept(ids[0], "alice"); err != nil {
		t.Fatalf("accept: %v", err)
	}
	a, _ := reg.Get(ids[0])
	if a.Status != Agreed {
		t.Fatalf("status = %v", a.Status)
	}
	// Accepting twice fails.
	if err := reg.Accept(ids[0], "alice"); !errors.Is(err, ErrAlreadyDecided) {
		t.Fatalf("double accept: %v", err)
	}
}

func TestDenyFlowNotifiesProviderAndPenalizes(t *testing.T) {
	rep := reputation.NewStore()
	reg := NewRegistry(rep)
	ids := reg.ProposeFromBlock(1, records())
	provider, err := reg.Deny(ids[1], "bob")
	if err != nil {
		t.Fatal(err)
	}
	if provider != "p1" {
		t.Fatalf("provider to notify = %s", provider)
	}
	if rep.Score("bob") >= reputation.Initial {
		t.Fatal("denial should cost reputation")
	}
	a, _ := reg.Get(ids[1])
	if a.Status != Denied {
		t.Fatalf("status = %v", a.Status)
	}
}

func TestOnlyClientMayDecide(t *testing.T) {
	reg := NewRegistry(nil)
	ids := reg.ProposeFromBlock(1, records())
	if err := reg.Accept(ids[0], "mallory"); !errors.Is(err, ErrNotClient) {
		t.Fatalf("foreign accept: %v", err)
	}
	if _, err := reg.Deny(ids[0], "p1"); !errors.Is(err, ErrNotClient) {
		t.Fatalf("provider deny: %v", err)
	}
}

func TestUnknownAgreement(t *testing.T) {
	reg := NewRegistry(nil)
	if err := reg.Accept("9/ghost", "alice"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost accept: %v", err)
	}
	if _, err := reg.Get("9/ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost get: %v", err)
	}
}

func TestCountByStatus(t *testing.T) {
	reg := NewRegistry(nil)
	ids := reg.ProposeFromBlock(1, records())
	_ = reg.Accept(ids[0], "alice")
	if _, err := reg.Deny(ids[1], "bob"); err != nil {
		t.Fatal(err)
	}
	counts := reg.CountByStatus()
	if counts[Agreed] != 1 || counts[Denied] != 1 || counts[Proposed] != 0 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{Proposed: "proposed", Agreed: "agreed", Denied: "denied", Status(9): "status(9)"} {
		if s.String() != want {
			t.Fatalf("String(%d) = %s", int(s), s)
		}
	}
}
