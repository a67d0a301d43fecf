package bidding

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"decloud/internal/resource"
)

// Canonical binary encoding for orders. The two-phase bid exposure
// protocol hashes and signs orders, so the encoding must be deterministic:
// fixed field order, big-endian integers, IEEE-754 bits for floats, and
// resource kinds sorted lexicographically.

// Order tags distinguish the two order types on the wire.
const (
	tagRequest byte = 0x01
	tagOffer   byte = 0x02
)

// Decoding ran out of bytes, or left some over: an order is the whole input.
var (
	ErrTruncated     = errors.New("bidding: truncated order encoding")
	ErrTrailingBytes = errors.New("bidding: bytes after the end of the order encoding")
)

type encoder struct{ buf bytes.Buffer }

func (e *encoder) str(s string) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(s)))
	e.buf.Write(n[:])
	e.buf.WriteString(s)
}

func (e *encoder) u64(v uint64) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], v)
	e.buf.Write(n[:])
}

func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) vector(v resource.Vector) {
	kinds := make([]string, 0, len(v))
	for k := range v {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	e.u64(uint64(len(kinds)))
	for _, k := range kinds {
		e.str(k)
		e.f64(v[resource.Kind(k)])
	}
}

func (e *encoder) weights(w map[resource.Kind]float64) {
	kinds := make([]string, 0, len(w))
	for k := range w {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	e.u64(uint64(len(kinds)))
	for _, k := range kinds {
		e.str(k)
		e.f64(w[resource.Kind(k)])
	}
}

func (e *encoder) location(l Location) {
	e.f64(l.X)
	e.f64(l.Y)
	e.str(l.Zone)
}

type decoder struct{ r *bytes.Reader }

func (d *decoder) str() (string, error) {
	var n [4]byte
	if _, err := io.ReadFull(d.r, n[:]); err != nil {
		return "", ErrTruncated
	}
	length := binary.BigEndian.Uint32(n[:])
	if uint32(d.r.Len()) < length {
		return "", ErrTruncated
	}
	b := make([]byte, length)
	if _, err := io.ReadFull(d.r, b); err != nil {
		return "", ErrTruncated
	}
	return string(b), nil
}

func (d *decoder) u64() (uint64, error) {
	var n [8]byte
	if _, err := io.ReadFull(d.r, n[:]); err != nil {
		return 0, ErrTruncated
	}
	return binary.BigEndian.Uint64(n[:]), nil
}

func (d *decoder) i64() (int64, error) {
	v, err := d.u64()
	return int64(v), err
}

func (d *decoder) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

func (d *decoder) vector() (resource.Vector, error) {
	n, err := d.u64()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	// Every entry costs at least 12 wire bytes (4-byte kind length +
	// 8-byte quantity), so a count larger than the remaining input is a
	// forged header — reject it before sizing the map, or a 20-byte
	// message could demand a multi-gigabyte allocation.
	if n > uint64(d.r.Len())/12 {
		return nil, ErrTruncated
	}
	v := make(resource.Vector, n)
	for i := uint64(0); i < n; i++ {
		k, err := d.str()
		if err != nil {
			return nil, err
		}
		q, err := d.f64()
		if err != nil {
			return nil, err
		}
		v[resource.Kind(k)] = q
	}
	return v, nil
}

func (d *decoder) weights() (map[resource.Kind]float64, error) {
	v, err := d.vector()
	if err != nil || v == nil {
		return nil, err
	}
	return map[resource.Kind]float64(v), nil
}

// done reports whether the input was consumed to its last byte.
func (d *decoder) done() error {
	if d.r.Len() != 0 {
		return ErrTrailingBytes
	}
	return nil
}

func (d *decoder) location() (Location, error) {
	var l Location
	var err error
	if l.X, err = d.f64(); err != nil {
		return l, err
	}
	if l.Y, err = d.f64(); err != nil {
		return l, err
	}
	l.Zone, err = d.str()
	return l, err
}

// MarshalBinary encodes the request canonically. TrueValue is private and
// never leaves the client, so it is not encoded.
func (r *Request) MarshalBinary() ([]byte, error) {
	var e encoder
	e.buf.WriteByte(tagRequest)
	e.str(string(r.ID))
	e.str(string(r.Client))
	e.i64(r.Submitted)
	e.vector(r.Resources)
	e.weights(r.Weights)
	e.i64(r.Start)
	e.i64(r.End)
	e.i64(r.Duration)
	e.f64(r.Bid)
	e.location(r.Location)
	e.f64(r.Flexibility)
	e.f64(r.MaxDistance)
	return e.buf.Bytes(), nil
}

// UnmarshalBinary decodes a request encoded by MarshalBinary.
func (r *Request) UnmarshalBinary(data []byte) error {
	d := decoder{r: bytes.NewReader(data)}
	tag, err := d.r.ReadByte()
	if err != nil {
		return ErrTruncated
	}
	if tag != tagRequest {
		return fmt.Errorf("bidding: expected request tag, got %#x", tag)
	}
	id, err := d.str()
	if err != nil {
		return err
	}
	client, err := d.str()
	if err != nil {
		return err
	}
	r.ID, r.Client = OrderID(id), ParticipantID(client)
	if r.Submitted, err = d.i64(); err != nil {
		return err
	}
	if r.Resources, err = d.vector(); err != nil {
		return err
	}
	if r.Weights, err = d.weights(); err != nil {
		return err
	}
	if r.Start, err = d.i64(); err != nil {
		return err
	}
	if r.End, err = d.i64(); err != nil {
		return err
	}
	if r.Duration, err = d.i64(); err != nil {
		return err
	}
	if r.Bid, err = d.f64(); err != nil {
		return err
	}
	if r.Location, err = d.location(); err != nil {
		return err
	}
	if r.Flexibility, err = d.f64(); err != nil {
		return err
	}
	if r.MaxDistance, err = d.f64(); err != nil {
		return err
	}
	return d.done()
}

// MarshalBinary encodes the offer canonically. TrueCost is never encoded.
func (o *Offer) MarshalBinary() ([]byte, error) {
	var e encoder
	e.buf.WriteByte(tagOffer)
	e.str(string(o.ID))
	e.str(string(o.Provider))
	e.i64(o.Submitted)
	e.vector(o.Resources)
	e.i64(o.Start)
	e.i64(o.End)
	e.f64(o.Bid)
	e.location(o.Location)
	e.f64(o.MinReputation)
	return e.buf.Bytes(), nil
}

// UnmarshalBinary decodes an offer encoded by MarshalBinary.
func (o *Offer) UnmarshalBinary(data []byte) error {
	d := decoder{r: bytes.NewReader(data)}
	tag, err := d.r.ReadByte()
	if err != nil {
		return ErrTruncated
	}
	if tag != tagOffer {
		return fmt.Errorf("bidding: expected offer tag, got %#x", tag)
	}
	id, err := d.str()
	if err != nil {
		return err
	}
	provider, err := d.str()
	if err != nil {
		return err
	}
	o.ID, o.Provider = OrderID(id), ParticipantID(provider)
	if o.Submitted, err = d.i64(); err != nil {
		return err
	}
	if o.Resources, err = d.vector(); err != nil {
		return err
	}
	if o.Start, err = d.i64(); err != nil {
		return err
	}
	if o.End, err = d.i64(); err != nil {
		return err
	}
	if o.Bid, err = d.f64(); err != nil {
		return err
	}
	if o.Location, err = d.location(); err != nil {
		return err
	}
	if o.MinReputation, err = d.f64(); err != nil {
		return err
	}
	return d.done()
}

// DecodeOrder decodes either order type based on the leading tag and
// returns exactly one non-nil result.
func DecodeOrder(data []byte) (*Request, *Offer, error) {
	if len(data) == 0 {
		return nil, nil, ErrTruncated
	}
	switch data[0] {
	case tagRequest:
		var r Request
		if err := r.UnmarshalBinary(data); err != nil {
			return nil, nil, err
		}
		return &r, nil, nil
	case tagOffer:
		var o Offer
		if err := o.UnmarshalBinary(data); err != nil {
			return nil, nil, err
		}
		return nil, &o, nil
	default:
		return nil, nil, fmt.Errorf("bidding: unknown order tag %#x", data[0])
	}
}
