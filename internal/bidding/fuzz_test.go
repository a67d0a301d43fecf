package bidding

import (
	"bytes"
	"errors"
	"testing"

	"decloud/internal/resource"
)

// fuzzSeedOrders builds the seed corpus: canonical encodings of both
// order types, with and without optional fields, so the fuzzer starts
// from structurally valid inputs and mutates toward the edge cases.
func fuzzSeedOrders(tb testing.TB) [][]byte {
	tb.Helper()
	req := &Request{
		ID:        "req-fuzz-1",
		Client:    "client-a",
		Submitted: 42,
		Resources: resource.Vector{"cpu": 4, "ram": 16},
		Weights:   map[resource.Kind]float64{"cpu": 0.7, "ram": 0.3},
		Start:     100, End: 500, Duration: 60,
		Bid:         12.5,
		Location:    Location{X: 0.25, Y: -0.5, Zone: "eu-west"},
		Flexibility: 0.8,
		MaxDistance: 0.4,
	}
	bare := &Request{
		ID: "r", Client: "c",
		Resources: resource.Vector{"cpu": 1},
		Start:     0, End: 10, Duration: 5, Bid: 1,
	}
	off := &Offer{
		ID:        "off-fuzz-1",
		Provider:  "prov-b",
		Submitted: 7,
		Resources: resource.Vector{"cpu": 32, "ram": 128, "disk": 500},
		Start:     0, End: 1000,
		Bid:           2.25,
		Location:      Location{X: -1, Y: 1, Zone: ""},
		MinReputation: 0.9,
	}
	var seeds [][]byte
	for _, m := range []interface{ MarshalBinary() ([]byte, error) }{req, bare, off} {
		data, err := m.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzDecodeBid throws arbitrary bytes at the wire decoder every peer
// runs on unauthenticated gossip. DecodeOrder must never panic, any
// input it accepts was consumed to its last byte (so the same input with
// anything appended is refused for its trailing bytes, and for nothing
// else), and it is canonical: re-encoding the order yields exactly the
// input, so no two byte strings decode to one order. (Byte-level
// comparison rather than DeepEqual so NaN bids — representable on the
// wire via Float64bits — don't produce false mismatches.)
func FuzzDecodeBid(f *testing.F) {
	for _, seed := range fuzzSeedOrders(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x02})
	f.Add([]byte{0xff, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, off, err := DecodeOrder(data)
		if err != nil {
			if req != nil || off != nil {
				t.Fatalf("error %v but non-nil order returned", err)
			}
			return
		}
		if (req == nil) == (off == nil) {
			t.Fatal("DecodeOrder must return exactly one non-nil order")
		}
		if _, _, err := DecodeOrder(append(data[:len(data):len(data)], 0)); !errors.Is(err, ErrTrailingBytes) {
			t.Fatalf("accepted input plus one byte: %v, want ErrTrailingBytes — the decoder stopped before the end", err)
		}
		var enc []byte
		if req != nil {
			enc, err = req.MarshalBinary()
		} else {
			enc, err = off.MarshalBinary()
		}
		if err != nil {
			t.Fatalf("re-encode of accepted order failed: %v", err)
		}
		if !bytes.Equal(data, enc) {
			t.Fatalf("accepted input is not its own encoding:\n input: %x\nre-enc: %x", data, enc)
		}
	})
}
