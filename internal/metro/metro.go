// Package metro is the geography-aware federation layer: the market is
// split into metro exchanges, one per metro cell, each owning its own
// streaming order book (internal/book) and a lightweight outcome chain.
// Metro homing derives from the bid location fields: the unit square is
// cut into CellSize×CellSize grid cells and every cell maps to exactly
// one metro, so all orders of one neighborhood clear on the same exchange
// (the hub-and-spoke shape of the DoubleZero DZX RFC: one exchange per
// metro instead of a full mesh of peers).
//
// Orders no local exchange can fill do not die locally: once a
// request's carry budget is exhausted it spills to the lowest-latency
// neighbor metro chosen by a pluggable LatencyMatrix, crossing at most
// MaxHops metros before expiring. Offers never spill — they describe
// machines that physically sit in their metro. The federation's
// cross-settlement round (Federation.Round) is deterministic end to
// end: homing is a pure function of the location fields, per-metro
// clears are the book's (proven byte-identical to the from-scratch
// mechanism by book/booktest), and spill routing depends only on the
// latency matrix and the order's visited set. A single-metro federation
// is byte-identical to one monolithic book — enforced by
// metro/metrotest's differential harness.
package metro

import (
	"crypto/sha256"
	"encoding/binary"

	"decloud/internal/bidding"
	"decloud/internal/geo"
)

// DefaultCellSize is re-exported from internal/geo, where the homing
// primitives live so workload generators can steer client homes without
// importing the federation itself.
const DefaultCellSize = geo.DefaultCellSize

// evidenceDomain separates per-metro evidence derivation from every
// other use of the block evidence. geo.Home hashes under the "/home"
// suffix of the same domain — the two packages share one consensus
// namespace.
const evidenceDomain = "decloud/metro/v1"

// Cell quantizes a location to its integer grid cell; see geo.Cell for
// the totality and stability guarantees FuzzMetroHoming asserts.
func Cell(loc bidding.Location, cellSize float64) (int64, int64) {
	return geo.Cell(loc, cellSize)
}

// Home maps a location to its metro exchange in [0, metros); see
// geo.Home. It is a pure function of the location's grid cell, so it is
// total, deterministic across processes, and stable under intra-cell
// jitter.
func Home(loc bidding.Location, cellSize float64, metros int) int {
	return geo.Home(loc, cellSize, metros)
}

// MetroEvidence derives the evidence an exchange seeds its lotteries
// with. A single-metro federation passes the round evidence through
// unchanged — that is what makes M=1 byte-identical to a monolithic
// book — while a real federation domain-separates per metro so sibling
// exchanges never share a lottery stream.
func MetroEvidence(evidence []byte, m, metros int) []byte {
	if metros <= 1 {
		return evidence
	}
	h := sha256.New()
	h.Write([]byte(evidenceDomain))
	h.Write(evidence)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(m))
	h.Write(buf[:])
	return h.Sum(nil)
}
