package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pas2p/internal/vtime"
)

// fuzzTrace deterministically expands (seed, procs, events) into a
// structurally valid trace: random per-rank streams whose receive
// relations are fixed up to point at existing sends, exactly as
// NewTrace requires. The fuzzer explores shapes through the scalar
// parameters instead of raw bytes, so every input exercises the real
// encoder instead of dying in validation.
func fuzzTrace(t *testing.T, seed int64, procs, events int) *Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rec := StartRecording("fuzz", procs)
	for p := 0; p < procs; p++ {
		var tphys vtime.Time
		for i := 0; i < events; i++ {
			tphys += vtime.Time(rng.Intn(5000) + 1)
			kind := Kind(rng.Intn(3))
			peer := int32(rng.Intn(procs))
			if kind == Collective {
				peer = -1
			}
			rec.Recorder(p).Record(&Event{
				Kind: kind, Involved: int32(rng.Intn(8) + 2),
				CollOp: int8(rng.Intn(8)) - 1, Peer: peer,
				Tag: int32(rng.Intn(16)), Size: int64(rng.Intn(1 << 16)),
				Enter: tphys, Exit: tphys + vtime.Time(rng.Intn(500)),
				RelA: int64(rng.Intn(procs)), RelB: int64(rng.Intn(100)),
			})
		}
	}
	rec.Close(0)
	streams := drained(rec)
	type key struct{ a, b int64 }
	sends := map[key]bool{}
	for p := range streams {
		for i := range streams[p] {
			if streams[p][i].Kind == Send {
				sends[key{streams[p][i].RelA, streams[p][i].RelB}] = true
			}
		}
	}
	for p := range streams {
		for i := range streams[p] {
			e := &streams[p][i]
			if e.Kind == Recv && !sends[key{e.RelA, e.RelB}] {
				e.Kind = Collective
				e.Peer = -1
			}
		}
	}
	tr, err := NewTrace("fuzz", procs, streams, vtime.Duration(rng.Intn(1e9)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// FuzzDecodeTracefile drives the v2 checksummed codec: any generated
// trace must round-trip exactly, and any single corrupted byte or
// torn tail must produce an error that names a byte offset — never a
// panic, never a silently wrong trace.
func FuzzDecodeTracefile(f *testing.F) {
	f.Add(int64(7), 3, 40, uint32(100), byte(0x41), uint16(0))
	f.Add(int64(1), 1, 1, uint32(0), byte(0xff), uint16(3))
	f.Add(int64(2), 4, 0, uint32(9), byte(1), uint16(1))
	f.Add(int64(3), 2, 600, uint32(55555), byte(0x80), uint16(9000))
	f.Add(int64(99), 6, 513, uint32(31), byte(7), uint16(40))
	// Byte 7 ^= 3 downgrades the magic to the retired PAS2PTR1.
	f.Add(int64(7), 3, 40, uint32(7), byte(2), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, procs, events int, pos uint32, flip byte, cut uint16) {
		if procs < 1 || procs > 8 || events < 0 || events > 1200 {
			t.Skip("out of modelled range")
		}
		tr := fuzzTrace(t, seed, procs, events)
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatal("round trip mismatch")
		}

		raw := buf.Bytes()
		// One corrupted byte anywhere: CRC32C catches every burst
		// error shorter than 32 bits, so this must always be detected
		// and located.
		corrupted := append([]byte(nil), raw...)
		p := int(pos) % len(corrupted)
		corrupted[p] ^= flip | 1
		if _, err := Decode(bytes.NewReader(corrupted)); err == nil {
			t.Fatalf("flip at %d went undetected", p)
		} else if !strings.Contains(err.Error(), "offset") {
			t.Fatalf("flip at %d: error lacks offset: %v", p, err)
		}

		// A torn tail (1..len bytes lost) must be detected and located.
		drop := 1 + int(cut)%len(raw)
		if _, err := Decode(bytes.NewReader(raw[:len(raw)-drop])); err == nil {
			t.Fatalf("truncation by %d bytes went undetected", drop)
		} else if !strings.Contains(err.Error(), "offset") {
			t.Fatalf("truncation by %d: error lacks offset: %v", drop, err)
		}
	})
}

// rankEvents reads every process's stream of a tracefile through
// BlockReader.RankStreams, returning the per-process events or the
// first error.
func rankEvents(raw []byte) ([][]Event, error) {
	br, err := NewBlockReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	rs, err := br.RankStreams()
	if err != nil {
		return nil, err
	}
	per := make([][]Event, br.Meta().Procs)
	for p := range per {
		for {
			var e Event
			ok, err := rs.NextEvent(p, &e)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			per[p] = append(per[p], e)
		}
	}
	return per, nil
}

// samePerProcess compares per-process event lists, an empty list
// equal to a missing one.
func samePerProcess(a, b [][]Event) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if !slices.Equal(a[p], b[p]) {
			return false
		}
	}
	return true
}

// FuzzBlockReader drives the two v2 readers besides Decode over
// mutated block boundaries. On a clean file the rank streams must
// yield exactly Decode's per-process events. With a byte flipped or
// the tail torn near a seed-chosen block edge, VerifyStream (the
// repo-fsck path) must fail exactly as Decode does, error text and
// offset included, and the rank streams must fail or hand back the
// clean events — never panic, never silently wrong events.
func FuzzBlockReader(f *testing.F) {
	f.Add(int64(7), 3, 40, uint16(0), int8(0), byte(0x41))
	f.Add(int64(1), 1, 1, uint16(1), int8(-1), byte(0xff))
	f.Add(int64(2), 4, 0, uint16(0), int8(1), byte(1))
	f.Add(int64(3), 2, 600, uint16(2), int8(3), byte(0x80)) // several blocks
	f.Add(int64(99), 6, 513, uint16(6), int8(-4), byte(7))  // boundary-straddling count
	f.Add(int64(7), 3, 40, uint16(0), int8(-33), byte(2))   // byte 7 ^= 3: retired magic
	f.Fuzz(func(t *testing.T, seed int64, procs, events int, blockIdx uint16, delta int8, flip byte) {
		if procs < 1 || procs > 8 || events < 0 || events > 1200 {
			t.Skip("out of modelled range")
		}
		tr := fuzzTrace(t, seed, procs, events)
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatalf("encode: %v", err)
		}
		raw := buf.Bytes()

		dec, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("decode clean file: %v", err)
		}
		want := dec.PerProcess()
		got, err := rankEvents(raw)
		if err != nil {
			t.Fatalf("rank streams over clean file: %v", err)
		}
		if !samePerProcess(got, want) {
			t.Fatal("rank streams diverge from the decoded trace")
		}
		if _, err := VerifyStream(bytes.NewReader(raw)); err != nil {
			t.Fatalf("verify clean file: %v", err)
		}

		// damaged checks one mutated file against every reader.
		damaged := func(what string, data []byte) {
			t.Helper()
			_, derr := Decode(bytes.NewReader(data))
			if derr == nil {
				// CRC32C guarantees single-byte flips are caught inside
				// checksummed extents; the only silent region would be a bug.
				t.Fatalf("%s went undetected", what)
			}
			if !strings.Contains(derr.Error(), "offset") || !errors.Is(derr, ErrCorrupt) {
				t.Fatalf("%s: error lacks offset or ErrCorrupt: %v", what, derr)
			}
			if _, verr := VerifyStream(bytes.NewReader(data)); verr == nil || verr.Error() != derr.Error() {
				t.Fatalf("%s: VerifyStream diverges from Decode:\n  decode: %v\n  verify: %v", what, derr, verr)
			}
			if per, err := rankEvents(data); err == nil && !samePerProcess(per, want) {
				t.Fatalf("%s: rank streams handed back wrong events", what)
			}
		}

		// Mutate at (or near) a block boundary: the byte at offset
		// headerEnd + blockIdx*(blockBytes+4) + delta, clamped into the
		// file. delta walks across the CRC/record seam.
		headerEnd := 8 + 24 + len(tr.AppName) + 4
		pos := headerEnd + int(blockIdx)*(blockBytes+4) + int(delta)
		if pos < 0 {
			pos = 0
		}
		if pos >= len(raw) {
			pos %= len(raw)
		}
		corrupted := append([]byte(nil), raw...)
		corrupted[pos] ^= flip | 1
		damaged(fmt.Sprintf("flip at %d", pos), corrupted)

		// Torn tail ending inside the seed-chosen block.
		cut := pos
		if cut < headerEnd {
			cut = headerEnd
		}
		damaged(fmt.Sprintf("truncation at %d", cut), raw[:cut])
	})
}

// fuzzBytes reads fuzz input cyclically, so a short input still
// drives a long recording, and an empty one reads zeros.
type fuzzBytes struct {
	data []byte
	off  int
}

func (b *fuzzBytes) byte() byte {
	if len(b.data) == 0 {
		return 0
	}
	v := b.data[b.off%len(b.data)]
	b.off++
	return v
}

func (b *fuzzBytes) int64() int64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b.byte())
	}
	return int64(v)
}

// fuzzTime picks an instant near prev (before it, for an overlapping
// operation, or after it), a raw int64, or an int64 extreme.
func fuzzTime(b *fuzzBytes, prev vtime.Time) vtime.Time {
	switch m := b.byte(); m % 4 {
	case 0:
		return prev + vtime.Time(int8(b.byte()))
	case 1:
		return vtime.Time(b.int64())
	case 2:
		if m&4 == 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	default:
		return prev + vtime.Time(b.byte())<<8 + vtime.Time(b.byte())
	}
}

// deriveFields is what Record derives for process proc's stream, as an
// oracle independent of the recorder's stored form: the process, the
// numbering, no logical time, and the compute time since the previous
// exit, with overlapping operations clamped onto that exit.
func deriveFields(proc int, in []Event) []Event {
	out := make([]Event, len(in))
	var lastExit vtime.Time
	for i, e := range in {
		e.Process, e.Number, e.LT = int32(proc), int64(i), NoLT
		e.ComputeBefore = e.Enter.Sub(lastExit)
		if e.ComputeBefore < 0 {
			e.ComputeBefore = 0
			e.Enter = lastExit
			if e.Exit < e.Enter {
				e.Exit = e.Enter
			}
		}
		lastExit = e.Exit
		out[i] = e
	}
	return out
}

// FuzzRecordingRoundTrip records arbitrary events, overlapping and at
// extreme int64 times included, with junk in the fields Record
// derives. A drain of the recording must read each stream exactly as
// the oracle derives it, Recording.Trace of a second recording of the
// same events must be exactly NewTrace over those streams, and Record
// must leave its argument as it was.
func FuzzRecordingRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 200, 1, 0, 10, 0, 5})
	f.Add([]byte{3, 255, 2, 6, 2, 2, 0, 0x80, 1, 0x7f, 0xff})
	f.Add([]byte{1, 250, 9, 1, 0x80, 0, 0, 0, 0, 0, 0, 1, 0, 0xfe, 3, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &fuzzBytes{data: data}
		procs := 1 + int(b.byte()%4)
		events := 8 * int(b.byte()) // up to 2040: several chunks per process
		rec := StartRecording("fuzz", procs)
		inputs := make([][]Event, procs)
		prev := make([]vtime.Time, procs)
		for i := 0; i < events; i++ {
			sel := b.byte()
			p := int(sel) % procs
			e := Event{
				Kind: Kind(sel / 4 % 3), Size: b.int64(),
				RelA: b.int64(), RelB: b.int64(),
				Involved: int32(b.int64()), Peer: int32(b.int64()),
				Tag: int32(b.int64()), CollOp: int8(b.byte()),
				// Record derives these; what the caller leaves in
				// them must not show.
				Process: int32(b.int64()), Number: b.int64(),
				LT: b.int64(), ComputeBefore: vtime.Duration(b.int64()),
			}
			e.Enter = fuzzTime(b, prev[p])
			e.Exit = fuzzTime(b, e.Enter)
			prev[p] = e.Exit
			in := e
			rec.Recorder(p).Record(&e)
			if e != in {
				t.Fatalf("Record modified its argument: %+v, was %+v", e, in)
			}
			inputs[p] = append(inputs[p], in)
		}
		streams := make([][]Event, procs)
		for p := range streams {
			streams[p] = deriveFields(p, inputs[p])
		}
		want, err := NewTrace("fuzz", procs, streams, 7)
		if err != nil {
			t.Fatal(err)
		}
		rec.Close(7)
		if rec.Meta() != want.Meta() {
			t.Fatalf("Meta %+v, want %+v", rec.Meta(), want.Meta())
		}
		for p, got := range drained(rec) {
			evs := streams[p]
			if len(got) != len(evs) {
				t.Fatalf("process %d streams %d events, want %d", p, len(got), len(evs))
			}
			for i := range evs {
				if got[i] != evs[i] {
					t.Fatalf("process %d event %d = %+v, want %+v", p, i, got[i], evs[i])
				}
			}
		}
		again := StartRecording("fuzz", procs)
		for p, in := range inputs {
			for i := range in {
				again.Recorder(p).Record(&in[i])
			}
		}
		again.Close(7)
		if got := again.Trace(); !reflect.DeepEqual(got, want) {
			t.Fatal("Recording.Trace differs from NewTrace over the derived streams")
		}
	})
}

// FuzzPackRoundTrip packs a pair of arbitrary events, every field at
// any value, as a decode packs the blocks that verify before its final
// reservation: unpacking must give both back exactly, and each may
// take at most maxPacked bytes.
func FuzzPackRoundTrip(f *testing.F) {
	lo := Event{Number: math.MinInt64, Size: math.MinInt64, Enter: math.MinInt64, Exit: math.MinInt64,
		LT: math.MinInt64, RelA: math.MinInt64, RelB: math.MinInt64, ComputeBefore: math.MinInt64,
		Process: math.MinInt32, Involved: math.MinInt32, Peer: math.MinInt32, Tag: math.MinInt32,
		Kind: -128, CollOp: -128}
	hi := Event{Number: math.MaxInt64, Size: math.MaxInt64, Enter: math.MaxInt64, Exit: math.MaxInt64,
		LT: math.MaxInt64, RelA: math.MaxInt64, RelB: math.MaxInt64, ComputeBefore: math.MaxInt64,
		Process: math.MaxInt32, Involved: math.MaxInt32, Peer: math.MaxInt32, Tag: math.MaxInt32,
		Kind: 127, CollOp: 127}
	record := func(e Event) []byte {
		b := make([]byte, recordSize)
		putRecord(b, &e, 0)
		return b
	}
	f.Add([]byte{}, []byte{})
	f.Add(record(lo), record(hi))
	f.Add(record(hi), record(lo))
	f.Add(record(Event{Number: 7, Enter: 1000, Exit: 1500, LT: NoLT, Peer: -1, CollOp: -1}), record(lo))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var want, got [2]Event
		recs := make([]byte, 2*recordSize)
		for i, src := range [][]byte{a, b} {
			r := recs[i*recordSize : (i+1)*recordSize]
			copy(r, src)
			getRecord(r, &want[i])
		}
		packed := packRecords(nil, recs[:recordSize], 1)
		if len(packed) > maxPacked {
			t.Fatalf("first event packed into %d bytes, past maxPacked %d", len(packed), maxPacked)
		}
		packed = packRecords(nil, recs, 2)
		if len(packed) > 2*maxPacked {
			t.Fatalf("pair packed into %d bytes, past 2*maxPacked", len(packed))
		}
		unpackRecords(packed, got[:])
		if got != want {
			t.Fatalf("pack round trip:\n got  %+v\n want %+v", got, want)
		}
	})
}
