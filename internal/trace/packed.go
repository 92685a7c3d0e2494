package trace

// The packed form a decode keeps its first blocks in.
//
// A decode reserves its one events slice only once half the header's
// count has verified (eventReservation); the blocks that verify before
// then are kept packed, at a few bytes an event instead of Event's 88,
// and unpacked straight into that slice once it is reserved. A packed
// record is Kind and CollOp, one raw byte each, then every other field
// in record order as the zigzag varint of its difference from the
// previous record's (from zero for a block's first record).
// Differences wrap, as int64 arithmetic does, so every field value
// round-trips exactly, and a record never exceeds maxPacked bytes. A
// recorded trace's fields change little from one event to the next,
// so most take a byte: the synthetic ring trace packs 16 bytes an
// event. The form never leaves the decode; it is not a file format.

import (
	"encoding/binary"
	"slices"

	"pas2p/internal/vtime"
)

// maxPacked bounds one packed record: Kind and CollOp, four 32-bit
// fields and eight 64-bit ones.
const maxPacked = 2 + 4*binary.MaxVarintLen32 + 8*binary.MaxVarintLen64

// packedBlockMax bounds one packed block: its records and the 2-byte
// length in front of them, which the assertion below keeps in range.
const packedBlockMax = 2 + blockEvents*maxPacked

var _ [0xffff - blockEvents*maxPacked]struct{}

// packGuess is the bytes an event a decode reserves for packing before
// it has packed any.
const packGuess = 24

// packFields is the number of fields a packed record holds as varints.
const packFields = 12

// packRecords appends the n verified records of rec, packed, to b. The
// varint fields follow Kind and CollOp in record order. The 32-bit ones
// are sign-extended, so a collective's Peer of -1 stays one byte from
// a neighbour's 0, and their difference takes at most a 32-bit
// varint's five bytes.
func packRecords(b, rec []byte, n int) []byte {
	le := binary.LittleEndian
	var p [packFields]int64 // the previous record's fields
	for i := 0; i < n; i++ {
		r := (*[recordSize]byte)(rec[i*recordSize:])
		b = slices.Grow(b, maxPacked)
		w := (*[maxPacked]byte)(b[len(b):][:maxPacked])
		w[0], w[1] = r[20], r[25]                                  // Kind, CollOp
		k := putDelta(w, 2, int64(int32(le.Uint32(r[8:]))), &p[0]) // Process
		k = putDelta(w, k, int64(le.Uint64(r[12:])), &p[1])        // Number
		k = putDelta(w, k, int64(int32(le.Uint32(r[21:]))), &p[2]) // Involved
		k = putDelta(w, k, int64(int32(le.Uint32(r[26:]))), &p[3]) // Peer
		k = putDelta(w, k, int64(int32(le.Uint32(r[30:]))), &p[4]) // Tag
		k = putDelta(w, k, int64(le.Uint64(r[34:])), &p[5])        // Size
		k = putDelta(w, k, int64(le.Uint64(r[42:])), &p[6])        // Enter
		k = putDelta(w, k, int64(le.Uint64(r[50:])), &p[7])        // Exit
		k = putDelta(w, k, int64(le.Uint64(r[58:])), &p[8])        // LT
		k = putDelta(w, k, int64(le.Uint64(r[66:])), &p[9])        // RelA
		k = putDelta(w, k, int64(le.Uint64(r[74:])), &p[10])       // RelB
		k = putDelta(w, k, int64(le.Uint64(r[82:])), &p[11])       // ComputeBefore
		b = b[:len(b)+k]
	}
	return b
}

// putDelta writes the zigzag varint of v less *prev at w[k:], makes v
// the new *prev, and returns the index past the varint.
func putDelta(w *[maxPacked]byte, k int, v int64, prev *int64) int {
	d := v - *prev
	*prev = v
	u := uint64(d<<1) ^ uint64(d>>63)
	for u >= 0x80 {
		w[k] = byte(u) | 0x80
		u >>= 7
		k++
	}
	w[k] = byte(u)
	return k + 1
}

// unpackRecords rebuilds len(dst) events from b, records packRecords
// packed.
func unpackRecords(b []byte, dst []Event) {
	var p [packFields]int64 // the previous record's fields
	i := 0
	for k := range dst {
		e := &dst[k]
		e.Kind, e.CollOp = Kind(b[i]), int8(b[i+1])
		// Unrolled: a loop over the fields unpacked a third slower.
		i = getDelta(b, i+2, &p[0])
		i = getDelta(b, i, &p[1])
		i = getDelta(b, i, &p[2])
		i = getDelta(b, i, &p[3])
		i = getDelta(b, i, &p[4])
		i = getDelta(b, i, &p[5])
		i = getDelta(b, i, &p[6])
		i = getDelta(b, i, &p[7])
		i = getDelta(b, i, &p[8])
		i = getDelta(b, i, &p[9])
		i = getDelta(b, i, &p[10])
		i = getDelta(b, i, &p[11])
		e.Process, e.Number = int32(p[0]), p[1]
		e.Involved, e.Peer, e.Tag = int32(p[2]), int32(p[3]), int32(p[4])
		e.Size, e.Enter, e.Exit = p[5], vtime.Time(p[6]), vtime.Time(p[7])
		e.LT, e.RelA, e.RelB = p[8], p[9], p[10]
		e.ComputeBefore = vtime.Duration(p[11])
	}
}

// getDelta adds the zigzag varint at b[i:], which putDelta wrote, to
// *prev, and returns the index past it.
func getDelta(b []byte, i int, prev *int64) int {
	u := uint64(b[i])
	i++
	if u >= 0x80 {
		u &= 0x7f
		for s := 7; ; s += 7 {
			c := b[i]
			i++
			u |= uint64(c&0x7f) << s
			if c < 0x80 {
				break
			}
		}
	}
	*prev += unzigzag(u)
	return i
}

// packedBlocks holds a decode's verified blocks, packed, until its
// final reservation. Each block is its packed length (2 bytes) and its
// records, and lies whole in one segment; the segments are filled in
// file order and never regrown, so a packed block is never copied.
// Every block packed is full: the reservations before the final one
// are whole eventChunks, and the count exceeds each of them.
type packedBlocks struct {
	segs   [][]byte
	events uint64 // events packed so far
	bytes  uint64 // bytes packed so far, lengths included
	left   uint64 // events of the current reservation still to pack
}

// tail returns the segment the next block goes into. When the last one
// could not hold a block of the worst case, it starts a new one, with
// room for the rest of the reservation at the bytes an event packed so
// far (packGuess before any) and for one more worst-case block.
func (p *packedBlocks) tail() *[]byte {
	if k := len(p.segs); k > 0 && cap(p.segs[k-1])-len(p.segs[k-1]) >= packedBlockMax {
		return &p.segs[k-1]
	}
	per := uint64(packGuess)
	if p.events > 0 {
		per = (p.bytes + p.events - 1) / p.events
	}
	p.segs = append(p.segs, make([]byte, 0, p.left*per+uint64(packedBlockMax)))
	return &p.segs[len(p.segs)-1]
}

// done accounts for a block of n events that took size bytes.
func (p *packedBlocks) done(n, size int) {
	p.events += uint64(n)
	p.bytes += uint64(size)
	p.left -= uint64(n)
}

// pack packs the n verified records of rec straight into the store.
func (p *packedBlocks) pack(rec []byte, n int) {
	s := p.tail()
	at := len(*s)
	b := packRecords(append(*s, 0, 0), rec, n)
	binary.LittleEndian.PutUint16(b[at:], uint16(len(b)-at-2))
	*s = b
	p.done(n, len(b)-at)
}

// add copies in a block of n events a decode worker packed.
func (p *packedBlocks) add(packed []byte, n int) {
	s := p.tail()
	*s = binary.LittleEndian.AppendUint16(*s, uint16(len(packed)))
	*s = append(*s, packed...)
	p.done(n, 2+len(packed))
}

// unpack rebuilds every packed block into dst, the start of the final
// events slice, in order: on eng's workers when eng is set, where the
// next wait on eng covers them.
func (p *packedBlocks) unpack(dst []Event, eng *decEngine) {
	for _, s := range p.segs {
		for len(s) > 0 {
			n := int(binary.LittleEndian.Uint16(s))
			blk, d := s[2:2+n], dst[:blockEvents]
			s, dst = s[2+n:], dst[blockEvents:]
			if eng != nil {
				eng.run(decTask{packed: blk, dst: d})
			} else {
				unpackRecords(blk, d)
			}
		}
	}
}
