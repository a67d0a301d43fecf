package bidding

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"decloud/internal/resource"
)

func validRequest() *Request {
	return &Request{
		ID:        "r1",
		Client:    "alice",
		Submitted: 10,
		Resources: resource.Vector{resource.CPU: 2, resource.RAM: 8},
		Weights:   map[resource.Kind]float64{resource.RAM: 0.5},
		Start:     0,
		End:       100,
		Duration:  50,
		Bid:       3.5,
		TrueValue: 3.5,
	}
}

func validOffer() *Offer {
	return &Offer{
		ID:        "o1",
		Provider:  "bob",
		Submitted: 5,
		Resources: resource.Vector{resource.CPU: 8, resource.RAM: 32},
		Start:     0,
		End:       200,
		Bid:       10,
		TrueCost:  10,
	}
}

func TestRequestValidate(t *testing.T) {
	if err := validRequest().Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Request)
		want   error
	}{
		{"no id", func(r *Request) { r.ID = "" }, ErrNoID},
		{"no client", func(r *Request) { r.Client = "" }, ErrNoOwner},
		{"no resources", func(r *Request) { r.Resources = nil }, ErrNoResources},
		{"zero resources", func(r *Request) { r.Resources = resource.Vector{resource.CPU: 0} }, ErrNoResources},
		{"inverted window", func(r *Request) { r.Start, r.End = 100, 0 }, ErrBadWindow},
		{"zero duration", func(r *Request) { r.Duration = 0 }, ErrBadDuration},
		{"duration over window", func(r *Request) { r.Duration = 1000 }, ErrBadDuration},
		{"negative bid", func(r *Request) { r.Bid = -1 }, ErrNegativeBid},
		{"nan bid", func(r *Request) { r.Bid = math.NaN() }, ErrNegativeBid},
		{"weight zero", func(r *Request) { r.Weights[resource.RAM] = 0 }, ErrBadWeight},
		{"weight above one", func(r *Request) { r.Weights[resource.RAM] = 1.5 }, ErrBadWeight},
		{"flexibility above one", func(r *Request) { r.Flexibility = 1.1 }, ErrBadFlexibility},
		{"negative resource", func(r *Request) { r.Resources[resource.CPU] = -1 }, nil},
		{"nan x", func(r *Request) { r.Location.X = math.NaN() }, ErrBadLocation},
		{"infinite y", func(r *Request) { r.Location.Y = math.Inf(-1) }, ErrBadLocation},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := validRequest()
			tt.mutate(r)
			err := r.Validate()
			if err == nil {
				t.Fatal("expected error")
			}
			if tt.want != nil && !errors.Is(err, tt.want) {
				t.Fatalf("got %v, want %v", err, tt.want)
			}
		})
	}
}

func TestOfferValidate(t *testing.T) {
	if err := validOffer().Validate(); err != nil {
		t.Fatalf("valid offer rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Offer)
		want   error
	}{
		{"no id", func(o *Offer) { o.ID = "" }, ErrNoID},
		{"no provider", func(o *Offer) { o.Provider = "" }, ErrNoOwner},
		{"no resources", func(o *Offer) { o.Resources = nil }, ErrNoResources},
		{"inverted window", func(o *Offer) { o.Start, o.End = 10, 10 }, ErrBadWindow},
		{"negative bid", func(o *Offer) { o.Bid = -0.1 }, ErrNegativeBid},
		{"nan y", func(o *Offer) { o.Location.Y = math.NaN() }, ErrBadLocation},
		{"infinite x", func(o *Offer) { o.Location.X = math.Inf(1) }, ErrBadLocation},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := validOffer()
			tt.mutate(o)
			err := o.Validate()
			if err == nil {
				t.Fatal("expected error")
			}
			if !errors.Is(err, tt.want) {
				t.Fatalf("got %v, want %v", err, tt.want)
			}
		})
	}
}

func TestWeightDefaultsToOne(t *testing.T) {
	r := validRequest()
	if got := r.Weight(resource.RAM); got != 0.5 {
		t.Fatalf("explicit weight = %v, want 0.5", got)
	}
	if got := r.Weight(resource.CPU); got != 1 {
		t.Fatalf("default weight = %v, want 1", got)
	}
}

func TestFlexDefault(t *testing.T) {
	r := validRequest()
	if r.Flex() != 1 {
		t.Fatalf("unset flexibility should read as 1, got %v", r.Flex())
	}
	r.Flexibility = 0.8
	if r.Flex() != 0.8 {
		t.Fatalf("Flex() = %v, want 0.8", r.Flex())
	}
}

func TestTimeCompatible(t *testing.T) {
	r := validRequest() // window [0,100]
	tests := []struct {
		name       string
		start, end int64
		want       bool
	}{
		{"covers exactly", 0, 100, true},
		{"covers loosely", -10, 150, true},
		{"starts late", 10, 150, false},
		{"ends early", 0, 90, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := validOffer()
			o.Start, o.End = tt.start, tt.end
			if got := TimeCompatible(r, o); got != tt.want {
				t.Fatalf("TimeCompatible = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestLocationDistance(t *testing.T) {
	a := Location{X: 0, Y: 0}
	b := Location{X: 3, Y: 4}
	if got := a.Distance(b); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Distance = %v, want 5", got)
	}
}

func TestRequestBinaryRoundTrip(t *testing.T) {
	r := validRequest()
	r.Location = Location{X: 1.5, Y: -2.5, Zone: "eu-north"}
	r.Flexibility = 0.8
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	got.TrueValue = r.TrueValue // private field, not on the wire
	if got.ID != r.ID || got.Client != r.Client || got.Submitted != r.Submitted ||
		got.Start != r.Start || got.End != r.End || got.Duration != r.Duration ||
		got.Bid != r.Bid || got.Location != r.Location || got.Flexibility != r.Flexibility {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, *r)
	}
	if !got.Resources.Equal(r.Resources) {
		t.Fatalf("resources mismatch: %v vs %v", got.Resources, r.Resources)
	}
	if got.Weights[resource.RAM] != 0.5 {
		t.Fatalf("weights mismatch: %v", got.Weights)
	}
}

func TestOfferBinaryRoundTrip(t *testing.T) {
	o := validOffer()
	o.Location = Location{Zone: "edge-7"}
	data, err := o.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Offer
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.ID != o.ID || got.Provider != o.Provider || got.Bid != o.Bid ||
		got.Start != o.Start || got.End != o.End || got.Location != o.Location {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, *o)
	}
	if !got.Resources.Equal(o.Resources) {
		t.Fatalf("resources mismatch: %v vs %v", got.Resources, o.Resources)
	}
}

func TestEncodingDeterministic(t *testing.T) {
	r := validRequest()
	r.Resources = resource.Vector{resource.RAM: 8, resource.CPU: 2, resource.Disk: 10}
	a, _ := r.MarshalBinary()
	b, _ := r.MarshalBinary()
	if string(a) != string(b) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestDecodeOrderDispatch(t *testing.T) {
	rdata, _ := validRequest().MarshalBinary()
	odata, _ := validOffer().MarshalBinary()
	r, o, err := DecodeOrder(rdata)
	if err != nil || r == nil || o != nil {
		t.Fatalf("request dispatch: r=%v o=%v err=%v", r, o, err)
	}
	r, o, err = DecodeOrder(odata)
	if err != nil || r != nil || o == nil {
		t.Fatalf("offer dispatch: r=%v o=%v err=%v", r, o, err)
	}
	if _, _, err := DecodeOrder(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty decode: %v", err)
	}
	if _, _, err := DecodeOrder([]byte{0x7f}); err == nil {
		t.Fatal("unknown tag should fail")
	}
}

func TestDecodeTruncated(t *testing.T) {
	data, _ := validRequest().MarshalBinary()
	for _, cut := range []int{1, 2, 5, len(data) / 2, len(data) - 1} {
		var r Request
		if err := r.UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	var o Offer
	if err := o.UnmarshalBinary(data); err == nil {
		t.Fatal("request bytes decoded as offer")
	}
}

// TestDecodeRejectsTrailingBytes: an order's encoding is the whole input.
// Bytes after it were once ignored — slack a sender could fill with
// anything without changing what the order decodes to.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	req, _ := validRequest().MarshalBinary()
	off, _ := validOffer().MarshalBinary()
	for _, tc := range []struct {
		name   string
		order  []byte
		suffix []byte
	}{
		{"request + one zero byte", req, []byte{0}},
		{"request + a second request", req, req},
		{"request + an offer", req, off},
		{"request + 4 KiB", req, make([]byte, 4096)},
		{"offer + one zero byte", off, []byte{0}},
		{"offer + a second offer", off, off},
		{"offer + a request tag", off, []byte{tagRequest}},
	} {
		if _, _, err := DecodeOrder(tc.order); err != nil {
			t.Fatalf("%s: the order alone is refused: %v", tc.name, err)
		}
		data := append(append([]byte(nil), tc.order...), tc.suffix...)
		if r, o, err := DecodeOrder(data); !errors.Is(err, ErrTrailingBytes) || r != nil || o != nil {
			t.Errorf("%s: DecodeOrder = %v, %v, %v; want ErrTrailingBytes", tc.name, r, o, err)
		}
		var err error
		if tc.order[0] == tagRequest {
			err = new(Request).UnmarshalBinary(data)
		} else {
			err = new(Offer).UnmarshalBinary(data)
		}
		if !errors.Is(err, ErrTrailingBytes) {
			t.Errorf("%s: UnmarshalBinary = %v, want ErrTrailingBytes", tc.name, err)
		}
	}
}

type kindQty struct {
	k resource.Kind
	q float64
}

// rawVector writes a vector's entries in the order given, duplicates and
// all, as a sender that skips the canonical sort could.
func rawVector(e *encoder, entries []kindQty) {
	e.u64(uint64(len(entries)))
	for _, x := range entries {
		e.str(string(x.k))
		e.f64(x.q)
	}
}

// rawRequest is validRequest's encoding with its Resources and Weights
// written as given.
func rawRequest(resources, weights []kindQty) []byte {
	r := validRequest()
	var e encoder
	e.buf.WriteByte(tagRequest)
	e.str(string(r.ID))
	e.str(string(r.Client))
	e.i64(r.Submitted)
	rawVector(&e, resources)
	rawVector(&e, weights)
	e.i64(r.Start)
	e.i64(r.End)
	e.i64(r.Duration)
	e.f64(r.Bid)
	e.location(r.Location)
	e.f64(r.Flexibility)
	e.f64(r.MaxDistance)
	return e.buf.Bytes()
}

// rawOffer is validOffer's encoding with its Resources written as given.
func rawOffer(resources []kindQty) []byte {
	o := validOffer()
	var e encoder
	e.buf.WriteByte(tagOffer)
	e.str(string(o.ID))
	e.str(string(o.Provider))
	e.i64(o.Submitted)
	rawVector(&e, resources)
	e.i64(o.Start)
	e.i64(o.End)
	e.f64(o.Bid)
	e.location(o.Location)
	e.f64(o.MinReputation)
	return e.buf.Bytes()
}

// TestDecodeRefusesNonCanonicalKinds: a resource vector's kinds must be
// strictly increasing. A kind written twice (once the last one won) or
// out of order (once accepted as is) would give one order several
// encodings; the decoder refuses both, in each of the three vectors on
// the wire.
func TestDecodeRefusesNonCanonicalKinds(t *testing.T) {
	reqRes := []kindQty{{resource.CPU, 2}, {resource.RAM, 8}}
	reqWeights := []kindQty{{resource.RAM, 0.5}}
	offRes := []kindQty{{resource.CPU, 8}, {resource.RAM, 32}}
	for _, tc := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"canonical request", rawRequest(reqRes, reqWeights), true},
		{"canonical offer", rawOffer(offRes), true},
		{"request resources: duplicate cpu", rawRequest([]kindQty{{resource.CPU, 2}, {resource.CPU, 2}, {resource.RAM, 8}}, reqWeights), false},
		{"request resources: ram before cpu", rawRequest([]kindQty{{resource.RAM, 8}, {resource.CPU, 2}}, reqWeights), false},
		{"request weights: duplicate cpu", rawRequest(reqRes, []kindQty{{resource.CPU, 0.5}, {resource.CPU, 0.5}}), false},
		{"request weights: ram before cpu", rawRequest(reqRes, []kindQty{{resource.RAM, 0.5}, {resource.CPU, 0.5}}), false},
		{"offer resources: duplicate cpu", rawOffer([]kindQty{{resource.CPU, 8}, {resource.CPU, 8}, {resource.RAM, 32}}), false},
		{"offer resources: ram before cpu", rawOffer([]kindQty{{resource.RAM, 32}, {resource.CPU, 8}}), false},
	} {
		r, o, err := DecodeOrder(tc.data)
		if tc.ok {
			want, _ := validRequest().MarshalBinary()
			if o != nil {
				want, _ = validOffer().MarshalBinary()
			}
			if err != nil || string(tc.data) != string(want) {
				t.Fatalf("%s: DecodeOrder = %v; the hand-built encoding must be the order's own", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, ErrNonCanonical) || r != nil || o != nil {
			t.Errorf("%s: DecodeOrder = %v, %v, %v; want ErrNonCanonical", tc.name, r, o, err)
		}
	}
}

func TestDecodeHostileLength(t *testing.T) {
	// A length prefix far larger than the remaining data must not panic
	// or allocate unboundedly.
	data := []byte{tagRequest, 0xff, 0xff, 0xff, 0xff}
	var r Request
	if err := r.UnmarshalBinary(data); err == nil {
		t.Fatal("hostile length accepted")
	}
}

func TestMaxDistanceValidatedAndOnWire(t *testing.T) {
	r := validRequest()
	r.MaxDistance = -1
	if err := r.Validate(); !errors.Is(err, ErrBadDistance) {
		t.Fatalf("negative distance accepted: %v", err)
	}
	r.MaxDistance = 12.5
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.MaxDistance != 12.5 {
		t.Fatalf("MaxDistance lost on the wire: %v", got.MaxDistance)
	}
}

func TestWithinReach(t *testing.T) {
	r := validRequest()
	o := validOffer()
	o.Location = Location{X: 6, Y: 8} // distance 10 from origin
	if !r.WithinReach(o) {
		t.Fatal("unconstrained request should reach anywhere")
	}
	r.MaxDistance = 9
	if r.WithinReach(o) {
		t.Fatal("offer beyond MaxDistance accepted")
	}
	r.MaxDistance = 10
	if !r.WithinReach(o) {
		t.Fatal("offer at exactly MaxDistance rejected")
	}
}

// TestDecodeOrderNeverPanics feeds adversarial bytes to the decoder: any
// outcome but a panic is acceptable.
func TestDecodeOrderNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("DecodeOrder panicked on %x: %v", data, r)
			}
		}()
		_, _, _ = DecodeOrder(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Also fuzz with a valid tag prefix so the body decoders get exercised.
	g := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("UnmarshalBinary panicked: %v", r)
			}
		}()
		var req Request
		_ = req.UnmarshalBinary(append([]byte{0x01}, data...))
		var off Offer
		_ = off.UnmarshalBinary(append([]byte{0x02}, data...))
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestRequestRoundTripProperty: every valid generated request survives
// the wire bit-exactly.
func TestRequestRoundTripProperty(t *testing.T) {
	f := func(cpu, ram uint8, bid uint16, dur uint8, flex uint8) bool {
		r := &Request{
			ID:        "r",
			Client:    "c",
			Resources: resource.Vector{resource.CPU: float64(cpu%16) + 1, resource.RAM: float64(ram) + 1},
			Start:     0,
			End:       int64(dur%100) + 2,
			Duration:  1,
			Bid:       float64(bid) / 100,
		}
		if flex%4 != 0 {
			r.Flexibility = float64(flex%4) * 0.25
		}
		data, err := r.MarshalBinary()
		if err != nil {
			return false
		}
		var got Request
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		return got.ID == r.ID && got.Bid == r.Bid && got.Flexibility == r.Flexibility &&
			got.Resources.Equal(r.Resources)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
