package ledger

import (
	"encoding/binary"
	"slices"

	"decloud/internal/sealed"
)

const minBid = 32 + 64 + 4 // the shortest encoded bid: sealed.AppendBid's fixed fields

// AppendBlock appends the block's wire form, in the sealed codec: the preamble
// as Hash hashes it, u32 n and the n bids, then u8 0 (no body) or u8 1 and the
// body — its reveals, u32 len and the allocation bytes, the allocation hash.
func AppendBlock(dst []byte, b *Block) ([]byte, error) {
	size := preambleSize + 5 + 4 + 4 + 32
	for _, bid := range b.Bids {
		size += minBid + len(bid.Envelope)
	}
	if b.Body != nil {
		size += len(b.Body.Reveals)*64 + len(b.Body.Allocation)
	}
	dst = binary.BigEndian.AppendUint32(b.Preamble.appendTo(slices.Grow(dst, size)), uint32(len(b.Bids)))
	var err error
	for i := 0; i < len(b.Bids) && err == nil; i++ {
		dst, err = sealed.AppendBid(dst, b.Bids[i])
	}
	if err != nil || b.Body == nil {
		return append(dst, 0), err
	}
	if dst, err = sealed.AppendReveals(append(dst, 1), b.Body.Reveals); err == nil {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Body.Allocation)))
	}
	return append(append(dst, b.Body.Allocation...), b.Body.AllocationHash[:]...), err
}

// ReadBlock decodes the block at the front of data and returns the rest.
func ReadBlock(data []byte) (*Block, []byte, error) {
	be := binary.BigEndian
	if len(data) < preambleSize+4 || uint64(be.Uint32(data[preambleSize:])) > uint64(len(data)-preambleSize-4)/minBid {
		return nil, nil, sealed.ErrBadEncoding
	}
	b := &Block{Preamble: Preamble{Height: int64(be.Uint64(data)), Timestamp: int64(be.Uint64(data[40:])),
		Difficulty: int(int64(be.Uint64(data[48:]))), Nonce: be.Uint64(data[56:])}}
	copy(b.Preamble.PrevHash[:], data[8:40])
	copy(b.Preamble.BidsHash[:], data[64:preambleSize])
	b.Bids, data = make([]*sealed.Bid, be.Uint32(data[preambleSize:])), data[preambleSize+4:]
	var err error
	for i := 0; i < len(b.Bids) && err == nil; i++ {
		b.Bids[i], data, err = sealed.ReadBid(data)
	}
	if err != nil || len(data) == 0 || data[0] > 1 {
		return nil, nil, sealed.ErrBadEncoding
	} else if data[0] == 0 {
		return b, data[1:], nil
	}
	b.Body = &Body{}
	b.Body.Reveals, data, err = sealed.ReadReveals(data[1:])
	if err != nil || len(data) < 4+32 || uint64(be.Uint32(data)) > uint64(len(data)-4-32) {
		return nil, nil, sealed.ErrBadEncoding
	}
	end := 4 + int(be.Uint32(data))
	b.Body.Allocation = data[4:end:end]
	copy(b.Body.AllocationHash[:], data[end:])
	return b, data[end+32:], nil
}

// DecodeBlock decodes data that is exactly one block.
func DecodeBlock(data []byte) (*Block, error) {
	b, rest, err := ReadBlock(data)
	if err != nil || len(rest) > 0 {
		return nil, sealed.ErrBadEncoding
	}
	return b, nil
}
