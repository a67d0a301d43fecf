// Package arena provides epoch-scoped slab allocation for the clearing
// hot path.
//
// A clear (one auction.Run, one book Preview/Apply) allocates hundreds
// of thousands of short-lived scratch objects — dense kind rows, bitmask
// words, top-k buffers, per-cluster component scratch — all of which die
// together at the end of the epoch. A Slab hands out sub-slices of large
// retained chunks instead: Make is a bump pointer, Reset rewinds it and
// keeps the chunks, so steady-state clears allocate nothing.
//
// Determinism contract: slabs hand out memory, never values. Every
// sub-slice returned by Make is zeroed before it is returned, so a
// computation over arena memory is bit-identical to the same computation
// over fresh make() memory — reuse cannot leak state across epochs.
// Slabs are NOT safe for concurrent use: goroutines clearing
// concurrently (the per-metro books of a federation) must each own
// their own Arena, reset at round boundaries.
package arena

// chunkSize is the element count of newly grown chunks. Requests larger
// than this get a dedicated exact-size chunk.
const chunkSize = 4096

// Slab is a typed bump allocator over retained chunks.
// The zero value is ready to use.
type Slab[T any] struct {
	chunks [][]T
	cur    int // index of the chunk being bumped
	off    int // next free element in chunks[cur]
}

// Make returns a zeroed slice of length and capacity n carved from the
// slab. The capacity is pinned to n so an append on the result cannot
// bleed into a neighbouring allocation.
func (s *Slab[T]) Make(n int) []T {
	if n == 0 {
		return nil
	}
	if n > chunkSize {
		// Oversized: dedicated chunk, fully consumed.
		c := make([]T, n)
		// Insert before the bump chunk so cur keeps pointing at a
		// chunk with free space.
		s.chunks = append(s.chunks, nil)
		copy(s.chunks[s.cur+1:], s.chunks[s.cur:])
		s.chunks[s.cur] = c
		s.cur++
		return c[0:n:n]
	}
	for s.cur < len(s.chunks) && s.off+n > len(s.chunks[s.cur]) {
		s.cur++
		s.off = 0
	}
	if s.cur == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, chunkSize))
	}
	c := s.chunks[s.cur]
	out := c[s.off : s.off+n : s.off+n]
	s.off += n
	// Chunks are zeroed when grown and re-zeroed by Reset, but an
	// explicit clear keeps the contract local and costs nothing when
	// already zero.
	clear(out)
	return out
}

// Reset rewinds the slab to empty, retaining chunks for reuse. All
// previously returned slices become invalid; the next epoch's Make calls
// return the same memory, re-zeroed.
func (s *Slab[T]) Reset() {
	for i := 0; i <= s.cur && i < len(s.chunks); i++ {
		clear(s.chunks[i][:])
	}
	s.cur = 0
	s.off = 0
}

// Cap returns the total retained element capacity (for tests/metrics).
func (s *Slab[T]) Cap() int {
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n
}

// Arena bundles the scalar slabs the clearing path needs. One Arena
// serves one epoch on one goroutine; reset it at round boundaries.
type Arena struct {
	F64 Slab[float64]
	U64 Slab[uint64]
	I64 Slab[int64]
	I32 Slab[int32]
	Int Slab[int]
}

// Reset rewinds every slab, retaining capacity.
func (a *Arena) Reset() {
	a.F64.Reset()
	a.U64.Reset()
	a.I64.Reset()
	a.I32.Reset()
	a.Int.Reset()
}
