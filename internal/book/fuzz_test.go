package book_test

import (
	"testing"

	"decloud/internal/auction"
	"decloud/internal/book/booktest"
)

// FuzzBookMutations feeds arbitrary byte strings through the trace
// decoder and replays them differentially against the from-scratch
// oracle. Any byte string is a valid trace (Decode is total), so the
// fuzzer explores mutation interleavings — insert/cancel/expire/clear
// in both direct and block mode — that the fixed random suite may
// miss. A crash or divergence here is a consensus bug.
func FuzzBookMutations(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 2, 6, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 4, 0, 9, 5, 0, 0, 6, 0, 0})
	f.Add([]byte{2, 0, 0, 3, 0, 1, 6, 0, 0, 0, 0, 2, 5, 0, 0})
	f.Add([]byte("booktest seed: mixed ops and clears"))

	pool := booktest.NewPool(97, 40)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400] // bound per-exec cost
		}
		ops := booktest.Decode(data)
		// Derive the worker count from the trace so the fuzzer also
		// mutates the execution configuration.
		cfg := auction.DefaultConfig()
		cfg.Workers = 1
		if len(data) > 0 && data[0]%2 == 1 {
			cfg.Workers = 4
		}
		maxCarry := 2
		if err := booktest.Replay(pool, ops, cfg, maxCarry); err != nil {
			t.Fatal(err)
		}
	})
}
