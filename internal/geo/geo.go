// Package geo holds the location→metro homing primitives shared by the
// federation layer (internal/metro) and the workload generators. It is
// a leaf package — it depends only on internal/bidding — so order
// stream generators can steer client homes toward metros without
// importing the federation (whose auction dependency would cycle
// through the auction package's own workload-driven tests).
//
// The domain string deliberately stays "decloud/metro/v1": these
// functions ARE the metro homing map; internal/metro re-exports them
// unchanged and consensus depends on the bytes.
package geo

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"decloud/internal/bidding"
)

// DefaultCellSize is the locality cell: a 0.25-wide grid over the unit
// square the workload generators scatter participants across, giving 16
// cells — enough granularity to spread any small metro count.
const DefaultCellSize = 0.25

// homeDomain separates the homing hash from every other SHA-256 use.
const homeDomain = "decloud/metro/v1/home"

// Cell quantizes a location to its integer grid cell. The mapping is
// total: NaN and infinite coordinates clamp to cell 0 on their axis,
// and finite coordinates are bounded before the floor so the int64
// conversion can never overflow. Jitter below the cell size that stays
// inside a cell never changes the cell — the stability property
// FuzzMetroHoming asserts.
func Cell(loc bidding.Location, cellSize float64) (int64, int64) {
	if !(cellSize > 0) || math.IsInf(cellSize, 0) {
		cellSize = DefaultCellSize
	}
	quant := func(v float64) int64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		c := math.Floor(v / cellSize)
		const bound = 1 << 40 // far beyond any workload coordinate
		if c > bound {
			return bound
		}
		if c < -bound {
			return -bound
		}
		return int64(c)
	}
	return quant(loc.X), quant(loc.Y)
}

// Home maps a location to its metro exchange in [0, metros). It is a
// pure function of the location's grid cell (never of the raw
// coordinates), so it is total, deterministic across processes, and
// stable under intra-cell jitter. metros < 1 is treated as 1.
func Home(loc bidding.Location, cellSize float64, metros int) int {
	if metros <= 1 {
		return 0
	}
	cx, cy := Cell(loc, cellSize)
	// Hash the cell rather than folding it linearly so adjacent cells
	// spread across metros even when metros shares factors with the
	// grid width. SHA-256 keeps the mapping identical on every
	// architecture (no dependence on Go's map or FNV seeding).
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(cx))
	binary.BigEndian.PutUint64(buf[8:16], uint64(cy))
	h := sha256.New()
	h.Write([]byte(homeDomain))
	h.Write(buf[:])
	sum := h.Sum(nil)
	return int(binary.BigEndian.Uint64(sum[:8]) % uint64(metros))
}
