// Package chaos provides deterministic fault injection for the two-phase
// bid exposure protocol. A Plan is a seeded schedule of transport faults —
// message drops, delays, duplicates (and, through delays, reorders),
// origin-based partitions, and crash-restart windows — that both the
// in-process miner network and the TCP gossip layer consult before
// delivering a message. Every decision is drawn from SHA-256 of the plan
// seed and the message's identity, never from wall-clock time or call
// order, so the same seed injects exactly the same faults on every run:
// chaos tests stay reproducible, and the protocol's deterministic
// exclusion rule (unrevealed bids are dropped identically on every honest
// node) can be asserted byte for byte.
package chaos

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"decloud/internal/stats"
)

// Probs are per-message fault probabilities. Drop, Delay, and Dup are
// mutually exclusive outcomes of one draw, so Drop+Delay+Dup must not
// exceed 1; the remainder is clean immediate delivery.
type Probs struct {
	Drop  float64
	Delay float64
	Dup   float64
	// MaxDelaySteps bounds the delay drawn for a delayed or duplicated
	// message, in steps (default 4). The in-process transport reads steps
	// as retry attempts; the TCP transport multiplies by Plan.Step.
	MaxDelaySteps int
}

// Window is a half-open interval [From, Until) of logical time. The
// in-process network uses round numbers; the TCP layer uses the plan's
// explicit clock (SetNow/Advance).
type Window struct {
	From, Until int64
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t int64) bool { return t >= w.From && t < w.Until }

// Partition severs GroupA from GroupB while its window is active.
// Partitions are origin-based: a message is blocked when its originator
// and the delivering node sit on opposite sides, regardless of the gossip
// path it took — a stronger cut than a link partition, and a deterministic
// one.
type Partition struct {
	Window
	GroupA, GroupB []string
}

// Crash takes a node fully offline for its window: everything it sends is
// lost and everything addressed to it is dropped. When the window closes
// the node is back (crash-restart); catching up with the chain is the
// protocol's job, not the plan's.
type Crash struct {
	Window
	Node string
}

// Plan is a seeded fault schedule. The zero value injects nothing; a nil
// *Plan is always safe to query. Plans are safe for concurrent use: all
// schedule fields are read-only after construction and the logical clock
// is atomic.
type Plan struct {
	Seed int64
	// Probs applies to every message without a TypeProbs override.
	Probs Probs
	// TypeProbs overrides Probs per wire message type (e.g. faults on
	// "reveal" gossip only, leaving "block" and "vote" reliable).
	TypeProbs map[string]Probs
	// Step converts delay steps to wall time on the TCP transport
	// (default 5ms).
	Step time.Duration
	// Partitions and Crashes are active during their windows.
	Partitions []Partition
	Crashes    []Crash
	// BlockedReveals lists bid digests whose key reveals never arrive, on
	// any attempt — the hook chaos tests use to replay a previous run's
	// exclusion set against a fault-free network. Excluded from JSON (the
	// key type has no text form) so a Plan's schedule can ship across
	// process boundaries — the devnet orchestrator serializes plans into
	// the config files of the node processes it spawns.
	BlockedReveals map[[32]byte]bool `json:"-"`

	now atomic.Int64
}

// Now returns the plan's logical clock (the TCP transport's notion of
// time; the in-process network passes round numbers explicitly).
func (p *Plan) Now() int64 {
	if p == nil {
		return 0
	}
	return p.now.Load()
}

// SetNow moves the logical clock, activating or expiring windows.
func (p *Plan) SetNow(t int64) { p.now.Store(t) }

// rand derives the deterministic generator for one labeled decision.
func (p *Plan) rand(label string) *rand.Rand {
	var seed [8]byte
	binary.BigEndian.PutUint64(seed[:], uint64(p.Seed))
	return stats.SubRand(seed[:], "chaos/"+label)
}

// Crashed reports whether node is inside a crash window at time t.
func (p *Plan) Crashed(t int64, node string) bool {
	if p == nil {
		return false
	}
	for _, c := range p.Crashes {
		if c.Node == node && c.Contains(t) {
			return true
		}
	}
	return false
}

// Partitioned reports whether a and b sit on opposite sides of an active
// partition at time t. The relation is symmetric.
func (p *Plan) Partitioned(t int64, a, b string) bool {
	if p == nil {
		return false
	}
	for _, cut := range p.Partitions {
		if !cut.Contains(t) {
			continue
		}
		if (member(cut.GroupA, a) && member(cut.GroupB, b)) ||
			(member(cut.GroupA, b) && member(cut.GroupB, a)) {
			return true
		}
	}
	return false
}

func member(group []string, name string) bool {
	for _, g := range group {
		if g == name {
			return true
		}
	}
	return false
}

// RevealLost decides whether the key reveal for digest is lost in transit
// on the given delivery attempt of the given round — the in-process
// transport's fault hook. The probability draw is keyed by (seed, round,
// attempt, digest) only, never by the producer, so the excluded set is
// identical no matter which miner wins the production race. Partition
// verdicts do consult the producer: under proof-of-stake the leader is
// deterministic, so partition-based exclusion stays reproducible there.
func (p *Plan) RevealLost(round int64, attempt int, producer, sender string, digest [32]byte) bool {
	if p == nil {
		return false
	}
	if p.BlockedReveals[digest] {
		return true
	}
	if p.Crashed(round, sender) || p.Partitioned(round, producer, sender) {
		return true
	}
	pr := p.Probs.Drop
	if tp, ok := p.TypeProbs["reveal"]; ok {
		pr = tp.Drop
	}
	if pr <= 0 {
		return false
	}
	label := fmt.Sprintf("reveal/%d/%d/%x", round, attempt, digest)
	return p.rand(label).Float64() < pr
}

// PlanDelivery is the TCP gossip fault hook; it satisfies p2p.FaultPlan
// without importing that package. It is consulted once per unique message
// a node sees (node is the delivering endpoint, from the message's
// originator) and returns the delivery schedule: nil means deliver
// normally, an empty schedule drops the message at this node, and each
// entry otherwise is one local delivery after that delay (the first entry
// also gates the relay; extra entries are duplicate deliveries).
func (p *Plan) PlanDelivery(node, from, msgType string, key [32]byte) []time.Duration {
	if p == nil {
		return nil
	}
	t := p.Now()
	if p.Crashed(t, node) || p.Crashed(t, from) || p.Partitioned(t, node, from) {
		return []time.Duration{}
	}
	probs := p.Probs
	if tp, ok := p.TypeProbs[msgType]; ok {
		probs = tp
	}
	if probs.Drop <= 0 && probs.Delay <= 0 && probs.Dup <= 0 {
		return nil
	}
	rnd := p.rand(fmt.Sprintf("p2p/%s/%s/%s/%x", node, from, msgType, key))
	u := rnd.Float64()
	step := p.Step
	if step <= 0 {
		step = 5 * time.Millisecond
	}
	maxSteps := probs.MaxDelaySteps
	if maxSteps <= 0 {
		maxSteps = 4
	}
	delay := func() time.Duration { return time.Duration(1+rnd.Intn(maxSteps)) * step }
	switch {
	case u < probs.Drop:
		return []time.Duration{}
	case u < probs.Drop+probs.Delay:
		return []time.Duration{delay()}
	case u < probs.Drop+probs.Delay+probs.Dup:
		return []time.Duration{0, delay()}
	}
	return nil
}

// SoakPlan derives a varied fault schedule from a seed for soak testing:
// drop/delay/duplicate rates are swept across seeds, and roughly a third
// of the schedules add a partition or a crash-restart window over the
// given node names. The same (seed, nodes) always yields the same plan.
func SoakPlan(seed int64, nodes []string) *Plan {
	p := &Plan{Seed: seed}
	rnd := p.rand("soak-plan")
	p.Probs = Probs{
		Drop:          0.1 + 0.4*rnd.Float64(),
		Delay:         0.3 * rnd.Float64(),
		Dup:           0.2 * rnd.Float64(),
		MaxDelaySteps: 1 + rnd.Intn(4),
	}
	if len(nodes) > 1 && rnd.Float64() < 0.3 {
		cut := 1 + rnd.Intn(len(nodes)-1)
		p.Partitions = append(p.Partitions, Partition{
			Window: Window{From: 0, Until: 1 + int64(rnd.Intn(3))},
			GroupA: append([]string(nil), nodes[:cut]...),
			GroupB: append([]string(nil), nodes[cut:]...),
		})
	}
	if len(nodes) > 0 && rnd.Float64() < 0.3 {
		p.Crashes = append(p.Crashes, Crash{
			Window: Window{From: 0, Until: 1 + int64(rnd.Intn(2))},
			Node:   nodes[rnd.Intn(len(nodes))],
		})
	}
	return p
}
