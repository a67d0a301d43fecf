// Package reputation implements the reputation system DeCloud relies on
// for post-allocation accountability (Sections III-B and VI): clients
// accrue a penalty for successive rejections of suggested allocations,
// and providers may require a minimum client reputation.
package reputation

import (
	"sort"
	"sync"

	"decloud/internal/bidding"
)

// Scores live in [0, 1]. New participants start at Initial; accepting an
// allocation restores reputation slowly; denying one costs increasingly
// more as the denial streak grows ("a reputational penalty for successive
// rejections", Section III-B).
const (
	Initial      = 1.0
	acceptReward = 0.05
	denyBase     = 0.9 // first denial multiplies the score by this
	denyStep     = 0.1 // each successive denial compounds the factor
)

type entry struct {
	score      float64
	denyStreak int
	accepts    int
	denies     int
}

// Store tracks participant reputations. Safe for concurrent use; the
// zero value is not usable — call NewStore.
type Store struct {
	mu      sync.RWMutex
	entries map[bidding.ParticipantID]*entry
}

// NewStore returns an empty reputation store.
func NewStore() *Store {
	return &Store{entries: make(map[bidding.ParticipantID]*entry)}
}

func (s *Store) get(id bidding.ParticipantID) *entry {
	e, ok := s.entries[id]
	if !ok {
		e = &entry{score: Initial}
		s.entries[id] = e
	}
	return e
}

// Score returns the participant's reputation (Initial when unknown).
func (s *Store) Score(id bidding.ParticipantID) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.entries[id]; ok {
		return e.score
	}
	return Initial
}

// RecordAccept rewards an accepted allocation: the denial streak resets
// and the score recovers, capped at 1.
func (s *Store) RecordAccept(id bidding.ParticipantID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.get(id)
	e.accepts++
	e.denyStreak = 0
	e.score += acceptReward
	if e.score > 1 {
		e.score = 1
	}
}

// RecordDeny penalizes a denied allocation. The multiplicative penalty
// deepens with the streak: one denial is cheap, habitual denial collapses
// the score.
func (s *Store) RecordDeny(id bidding.ParticipantID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.get(id)
	e.denies++
	e.denyStreak++
	factor := denyBase - float64(denyStep*float64(e.denyStreak-1))
	if factor < 0 {
		factor = 0
	}
	e.score *= factor
}

// Stats reports a participant's accept/deny counts.
func (s *Store) Stats(id bidding.ParticipantID) (accepts, denies int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.entries[id]; ok {
		return e.accepts, e.denies
	}
	return 0, 0
}

// Snapshot returns all known scores, sorted by participant ID.
func (s *Store) Snapshot() []ParticipantScore {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ParticipantScore, 0, len(s.entries))
	for id, e := range s.entries {
		out = append(out, ParticipantScore{ID: id, Score: e.score})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ParticipantScore is one row of a reputation snapshot.
type ParticipantScore struct {
	ID    bidding.ParticipantID
	Score float64
}
