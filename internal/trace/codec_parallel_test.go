package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"pas2p/internal/obs"
	"pas2p/internal/vtime"
)

// TestDecodeRoundTripAcrossWorkers: a tracefile decodes back to the
// encoded trace on the serial path and on the pool, on traces small
// enough to take the serial fallback and large enough to actually fan
// out.
func TestDecodeRoundTripAcrossWorkers(t *testing.T) {
	shapes := []struct {
		seed   int64
		procs  int
		events int // per process
	}{
		{1, 1, 0},     // empty: header + trailer only
		{2, 1, 1},     // single event
		{3, 2, 255},   // sub-block total
		{4, 3, 171},   // exactly one block (513 -> no; 3*171=513) — off-by-one around blockEvents
		{5, 2, 256},   // exactly blockEvents
		{6, 4, 1500},  // 6000 events: pooled path, partial final block
		{7, 3, 2048},  // 6144 events: whole number of blocks
		{8, 1, 40000}, // single stream, many blocks
	}
	for _, s := range shapes {
		tr := fuzzTrace(t, s.seed, s.procs, s.events)
		var enc bytes.Buffer
		if err := Encode(&enc, tr); err != nil {
			t.Fatalf("shape %+v: encode: %v", s, err)
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := decode(bytes.NewReader(enc.Bytes()), CodecOptions{}, workers)
			if err != nil {
				t.Fatalf("shape %+v workers=%d: decode: %v", s, workers, err)
			}
			if !reflect.DeepEqual(got, tr) {
				t.Fatalf("shape %+v workers=%d: decode round trip mismatch", s, workers)
			}
		}
	}
}

// TestDecodeCorruptionDeterministicAcrossWorkers pins the second half
// of the property: a damaged file produces the exact same error string
// (same failing unit, same byte offset) at every parallelism level,
// because block bytes are read serially in file order and worker errors
// resolve to the lowest block start.
func TestDecodeCorruptionDeterministicAcrossWorkers(t *testing.T) {
	tr := fuzzTrace(t, 11, 4, 1500) // 6000 events: 12 blocks, pooled path
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	headerEnd := 8 + 24 + len(tr.AppName) + 4

	// Past 2*eventChunk events, the first 2*eventChunk are packed
	// before the final reservation, on the workers or serially.
	big := syntheticTrace(2*eventChunk + 1000)
	buf.Reset()
	if err := Encode(&buf, big); err != nil {
		t.Fatal(err)
	}
	bigRaw := buf.Bytes()
	bigEnd := 8 + 24 + len(big.AppName) + 4
	block := func(k int) int { return bigEnd + k*(blockBytes+4) } // offset of block k

	cases := []struct {
		name   string
		raw    []byte
		mutate func([]byte) []byte
	}{
		{"flip-first-block", raw, func(b []byte) []byte { b[headerEnd+10] ^= 0x40; return b }},
		{"flip-mid-block", raw, func(b []byte) []byte { b[headerEnd+5*(blockBytes+4)+137] ^= 0x01; return b }},
		{"flip-last-block", raw, func(b []byte) []byte { b[len(b)-20] ^= 0x80; return b }},
		// Stored block CRC itself damaged.
		{"flip-block-crc", raw, func(b []byte) []byte { b[headerEnd+3*(blockBytes+4)-2] ^= 0xff; return b }},
		{"truncate-mid-record", raw, func(b []byte) []byte { return b[:headerEnd+2*(blockBytes+4)+recordSize+17] }},
		{"truncate-record-boundary", raw, func(b []byte) []byte { return b[:headerEnd+7*(blockBytes+4)+3*recordSize] }},
		{"truncate-trailer", raw, func(b []byte) []byte { return b[:len(b)-9] }},
		// Blocks 0-127 are the first reservation, 128-255 the second,
		// both packed; block 256 on is decoded into the final slice.
		{"packed/flip-first-reservation", bigRaw, func(b []byte) []byte { b[block(40)+300] ^= 0x08; return b }},
		{"packed/flip-second-reservation", bigRaw, func(b []byte) []byte { b[block(200)+5] ^= 0x02; return b }},
		{"packed/flip-block-crc", bigRaw, func(b []byte) []byte { b[block(131)-1] ^= 0x10; return b }},
		{"packed/two-flips", bigRaw, func(b []byte) []byte { b[block(250)+9] ^= 0x01; b[block(150)+9] ^= 0x01; return b }},
		{"packed/truncate", bigRaw, func(b []byte) []byte { return b[:block(190)+recordSize*7+3] }},
		{"final/flip", bigRaw, func(b []byte) []byte { b[block(257)+77] ^= 0x04; return b }},
	}
	for _, c := range cases {
		data := c.mutate(append([]byte(nil), c.raw...))
		_, serialErr := decode(bytes.NewReader(data), CodecOptions{}, 1)
		if serialErr == nil {
			t.Fatalf("%s: corruption went undetected", c.name)
		}
		if !strings.Contains(serialErr.Error(), "offset") {
			t.Fatalf("%s: error lacks offset: %v", c.name, serialErr)
		}
		for _, workers := range []int{2, 8} {
			_, err := decode(bytes.NewReader(data), CodecOptions{}, workers)
			if err == nil {
				t.Fatalf("%s workers=%d: corruption went undetected", c.name, workers)
			}
			if err.Error() != serialErr.Error() {
				t.Fatalf("%s workers=%d: error diverges from serial:\n  serial:   %v\n  parallel: %v",
					c.name, workers, serialErr, err)
			}
		}
		// The streaming reader reports the identical error too.
		if _, err := VerifyStream(bytes.NewReader(data)); err == nil || err.Error() != serialErr.Error() {
			t.Fatalf("%s: VerifyStream error diverges from Decode:\n  decode: %v\n  stream: %v",
				c.name, serialErr, err)
		}
	}
}

// TestEventReservationPolicy pins the reservation policy directly:
// no reservation exceeds max(2*verified, eventChunk), so before any
// event has verified a header count buys at most eventChunk events,
// while a decode of N events reserves O(log N) chunks, copies each
// once, and ends in one slice of exactly N.
func TestEventReservationPolicy(t *testing.T) {
	// reserve walks a decode of total events whose data all verifies,
	// returning its reservations and how many events it copied.
	reserve := func(total uint64) (sizes []uint64, copied uint64) {
		for verified := uint64(0); verified < total; {
			n, final := eventReservation(verified, total)
			if n > max(2*verified, eventChunk) {
				t.Fatalf("total %d: reserved %d after %d verified, past the bound", total, n, verified)
			}
			sizes = append(sizes, n)
			if final {
				if n != total {
					t.Fatalf("total %d: final reservation %d", total, n)
				}
				return sizes, verified
			}
			verified += n
		}
		t.Fatalf("total %d: decode ended in chunks, without its final slice", total)
		return nil, 0
	}
	const million = 1_000_000
	// Chunks of 64Ki, 64Ki, 128Ki, 256Ki, then the exact slice.
	sizes, copied := reserve(million)
	if want := []uint64{eventChunk, eventChunk, 2 * eventChunk, 4 * eventChunk, million}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("reservations for 1M: %v, want %v", sizes, want)
	}
	if copied != 8*eventChunk {
		t.Fatalf("1M decode copied %d events, want %d", copied, 8*eventChunk)
	}
	for _, total := range []uint64{1, 100, eventChunk} {
		if sizes, copied := reserve(total); len(sizes) != 1 || copied != 0 {
			t.Fatalf("total %d: reservations %v, copied %d; want one exact slice", total, sizes, copied)
		}
	}
	// The largest plausible count takes 20 chunks, as many as
	// readBlocks keeps on the stack.
	if sizes, _ := reserve(maxEventCount); len(sizes) != 20+1 {
		t.Fatalf("maxEventCount: %d reservations, want 20 chunks and the final slice", len(sizes))
	}
	// One verified block never funds a forged count.
	if n, final := eventReservation(blockEvents, 1<<35); final || n != eventChunk {
		t.Fatalf("2^35 events after one block: reserved %d (final %v), want a %d-event chunk", n, final, eventChunk)
	}
}

// TestDecodeBoundsForgedCount gives a real one-block tracefile a
// header, checksum-valid, that claims 2^35 events: the block verifies,
// yet Decode must fail on the missing rest, at every worker count,
// without an allocation the verified block cannot back.
func TestDecodeBoundsForgedCount(t *testing.T) {
	tr := syntheticTrace(blockEvents)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint64(raw[len(magicV2)+8:], 1<<35)
	h := len(magicV2) + 24 + len(tr.AppName)
	binary.LittleEndian.PutUint32(raw[h:], crc32.Checksum(raw[:h], crcTable))
	for _, workers := range []int{1, 4} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decode(bytes.NewReader(raw), CodecOptions{}, workers)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "offset") {
			t.Fatalf("workers=%d: forged count decoded, or failed without an offset: %v", workers, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
			t.Errorf("workers=%d: forged count cost %d MiB of allocation", workers, alloc>>20)
		}
	}
}

// TestTrustedDecodeAllocs pins the end-to-end allocation count of a
// large serial decode: eventReservation sizes each chunk as large as
// everything verified so far and, once half the header-declared count
// has verified, reserves the one exact events slice, so the decode
// makes O(log n) event allocations rather than one per 64Ki-event
// chunk.
func TestTrustedDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	tr := syntheticTrace(600_000)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	allocs := testing.AllocsPerRun(2, func() {
		got, err := decode(bytes.NewReader(data), CodecOptions{}, 1)
		if err != nil || len(got.Events) != 600_000 {
			t.Fatalf("decode: %v", err)
		}
	})
	// Measured 18: the reader plumbing (name, trace, scratch block
	// buffer and the rest), 4 chunks (64Ki, 64Ki, 128Ki and 256Ki
	// events) and the final 600k-event slice. One chunk per 64Ki
	// events alone would take 10; anything past 20 means the trusted
	// path regressed.
	if allocs > 20 {
		t.Fatalf("trusted 600k-event decode did %.0f allocations, want <= 20", allocs)
	}
}

// TestDecodeRoundTripPastPackedHalf decodes a trace of more than
// 2*eventChunk events, so its first two reservations are packed before
// the final slice, with every field as irregular as a record allows:
// int64 extremes in the times, sizes and ComputeBefore, assigned
// logical times, gaps in Number, int32 extremes in Peer and Process,
// and processes interleaved rather than grouped. Every field must come
// back exactly on the serial path and on the pool.
func TestDecodeRoundTripPastPackedHalf(t *testing.T) {
	const n = 2*eventChunk + 3*blockEvents + 77
	if _, final := eventReservation(eventChunk, n); final {
		t.Fatalf("%d events: decoded without a packed reservation", n)
	}
	rng := rand.New(rand.NewSource(37))
	i64 := func() int64 {
		switch rng.Intn(6) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		case 2:
			return 0
		default:
			return rng.Int63() - rng.Int63()
		}
	}
	i32 := func() int32 {
		switch rng.Intn(4) {
		case 0:
			return math.MinInt32
		case 1:
			return math.MaxInt32
		default:
			return int32(rng.Uint32())
		}
	}
	evs := make([]Event, n)
	for i := range evs {
		e := &evs[i]
		if i > 0 && rng.Intn(2) == 0 {
			// A recorded event's step: the same process, the next
			// number, times a little later. Small differences pack
			// into a byte or two.
			*e = evs[i-1]
			e.Number++
			e.Enter, e.Exit = e.Exit+vtime.Time(rng.Intn(100)), e.Exit+vtime.Time(rng.Intn(5000))
			e.LT += int64(rng.Intn(3))
			continue
		}
		*e = Event{
			Number: int64(i)*1000 + int64(rng.Intn(1000)), Size: i64(),
			Enter: vtime.Time(i64()), Exit: vtime.Time(i64()), LT: int64(rng.Intn(1 << 30)),
			RelA: i64(), RelB: i64(), ComputeBefore: vtime.Duration(i64()),
			Process: i32(), Involved: i32(), Peer: i32(), Tag: i32(),
			Kind: Kind(rng.Intn(256) - 128), CollOp: int8(rng.Intn(256) - 128),
		}
	}
	tr := &Trace{AppName: "irregular", Procs: 7, AET: math.MaxInt64, Events: evs}
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := decode(bytes.NewReader(buf.Bytes()), CodecOptions{}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.AppName != tr.AppName || got.Procs != tr.Procs || got.AET != tr.AET || len(got.Events) != n {
			t.Fatalf("workers=%d: header %q/%d/%d with %d events", workers, got.AppName, got.Procs, got.AET, len(got.Events))
		}
		for i := range evs {
			if got.Events[i] != evs[i] {
				t.Fatalf("workers=%d: event %d = %+v, want %+v", workers, i, got.Events[i], evs[i])
			}
		}
	}
}

// TestPackedRecordBound: an event whose every field is at its minimum
// after an all-zero start takes the most a packed record can, exactly
// maxPacked bytes.
func TestPackedRecordBound(t *testing.T) {
	e := Event{Number: math.MinInt64, Size: math.MinInt64, Enter: math.MinInt64, Exit: math.MinInt64,
		LT: math.MinInt64, RelA: math.MinInt64, RelB: math.MinInt64, ComputeBefore: math.MinInt64,
		Process: math.MinInt32, Involved: math.MinInt32, Peer: math.MinInt32, Tag: math.MinInt32}
	rec := make([]byte, recordSize)
	putRecord(rec, &e, 0)
	if n := len(packRecords(nil, rec, 1)); n != maxPacked {
		t.Fatalf("minimal event packed into %d bytes, want maxPacked = %d", n, maxPacked)
	}
}

// TestDecodeTotalAlloc pins what a large decode allocates in all: its
// events slice and little more. The blocks that verify before the
// final reservation are held packed, not as Event chunks copied into
// the slice, so a 600k-event decode allocates at most 1.25 times its
// events slice (1.17 measured; with Event chunks, 1.88), on the serial
// path and on a pool whose block buffers an earlier decode has made.
func TestDecodeTotalAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals are not stable under the race detector")
	}
	tr := syntheticTrace(600_000)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, workers := range []int{1, 2} {
		if _, err := decode(bytes.NewReader(data), CodecOptions{}, workers); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := decode(bytes.NewReader(data), CodecOptions{}, workers)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		slice := float64(cap(got.Events)) * float64(unsafe.Sizeof(Event{}))
		if ratio := float64(after.TotalAlloc-before.TotalAlloc) / slice; ratio > 1.25 {
			t.Errorf("workers=%d: 600k-event decode allocated %.2f times its events slice, want <= 1.25", workers, ratio)
		}
	}
}

// TestBlockWriterReaderRoundTrip drives the streaming writer directly:
// arbitrary Append chunkings of a one-process and of a 3-process trace
// must each produce Encode's file byte for byte, whose header
// BlockReader and VerifyStream read back. Both writers number the ID
// column by file position, so neither depends on how the trace's
// events interleave in time.
func TestBlockWriterReaderRoundTrip(t *testing.T) {
	stream := func(tr *Trace, chunk int) []byte {
		meta := Meta{AppName: tr.AppName, Procs: tr.Procs, Events: uint64(len(tr.Events)), AET: tr.AET}
		var got bytes.Buffer
		bw, err := NewBlockWriter(&got, meta, CodecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(tr.Events); off += chunk {
			end := min(off+chunk, len(tr.Events))
			if err := bw.Append(tr.Events[off:end]); err != nil {
				t.Fatalf("chunk=%d: append: %v", chunk, err)
			}
		}
		if err := bw.Close(); err != nil {
			t.Fatalf("chunk=%d: close: %v", chunk, err)
		}
		return got.Bytes()
	}

	one := fuzzTrace(t, 29, 1, 1500)
	var enc bytes.Buffer
	if err := Encode(&enc, one); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream(one, 700), enc.Bytes()) {
		t.Fatal("one-process trace: streamed bytes diverge from Encode")
	}

	tr := fuzzTrace(t, 31, 3, 1200) // 3600 events
	enc.Reset()
	if err := Encode(&enc, tr); err != nil {
		t.Fatal(err)
	}
	want := enc.Bytes()
	meta := Meta{AppName: tr.AppName, Procs: tr.Procs, Events: uint64(len(tr.Events)), AET: tr.AET}
	for _, chunk := range []int{1, 100, blockEvents, blockEvents + 1, 997, len(tr.Events)} {
		if !bytes.Equal(stream(tr, chunk), want) {
			t.Fatalf("3-process trace, chunk=%d: streamed bytes diverge from Encode", chunk)
		}
	}

	br, err := NewBlockReader(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if br.Meta() != meta {
		t.Fatalf("BlockReader meta %+v, want %+v", br.Meta(), meta)
	}
	meta2, err := VerifyStream(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("verify stream: %v", err)
	}
	if meta2 != meta {
		t.Fatalf("VerifyStream meta %+v, want %+v", meta2, meta)
	}
}

// TestBlockWriterReusedAppendBuffer: Append retains no event after it
// returns, so a caller may stream a whole trace through one reused
// buffer (as workload.Synthesize does) and still get the trace back.
func TestBlockWriterReusedAppendBuffer(t *testing.T) {
	tr := syntheticTrace(12_000)
	meta := Meta{AppName: tr.AppName, Procs: tr.Procs, Events: uint64(len(tr.Events)), AET: tr.AET}
	var file bytes.Buffer
	bw, err := NewBlockWriter(&file, meta, CodecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Event, 1024)
	for off := 0; off < len(tr.Events); off += len(buf) {
		n := copy(buf, tr.Events[off:])
		if err := bw.Append(buf[:n]); err != nil {
			t.Fatal(err)
		}
		clear(buf) // the next chunk overwrites it anyway
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatal("events written through a reused Append buffer differ from the input")
	}
}

// TestBlockWriterCountMismatch: the writer must refuse both overrun
// (more events than the header declared) and underrun at Close.
func TestBlockWriterCountMismatch(t *testing.T) {
	tr := fuzzTrace(t, 51, 1, 10)
	meta := Meta{AppName: tr.AppName, Procs: tr.Procs, Events: 5, AET: tr.AET}
	var buf bytes.Buffer
	bw, err := NewBlockWriter(&buf, meta, CodecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Append(tr.Events); err == nil {
		t.Fatal("overrun Append succeeded")
	}

	buf.Reset()
	bw, err = NewBlockWriter(&buf, Meta{AppName: "x", Procs: 1, Events: 100}, CodecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Append(tr.Events[:5]); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err == nil {
		t.Fatal("underrun Close succeeded")
	}
}

// TestCodecMetricsPublished: an encode/decode pair with a registry
// attached must publish block and byte counters that tally with the
// file, with the decode on the serial path and on the pool.
func TestCodecMetricsPublished(t *testing.T) {
	tr := fuzzTrace(t, 61, 3, 1024) // 3072 events -> 6 blocks
	wantBlocks := int64((len(tr.Events) + blockEvents - 1) / blockEvents)
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		var buf bytes.Buffer
		if err := EncodeWith(&buf, tr, CodecOptions{Reg: reg}); err != nil {
			t.Fatal(err)
		}
		if _, err := decode(bytes.NewReader(buf.Bytes()), CodecOptions{Reg: reg}, workers); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		for _, c := range []string{"codec.encode.blocks", "codec.decode.blocks"} {
			if got := snap.Counters[c]; got != wantBlocks {
				t.Fatalf("workers=%d: %s = %d, want %d", workers, c, got, wantBlocks)
			}
		}
		for _, c := range []string{"codec.encode.bytes", "codec.decode.bytes"} {
			if got := snap.Counters[c]; got != wantBlocks*4+int64(len(tr.Events))*recordSize {
				t.Fatalf("workers=%d: %s = %d, want %d", workers, c, got,
					wantBlocks*4+int64(len(tr.Events))*recordSize)
			}
		}
		if got := snap.Gauges["codec.encode.workers"]; got != 1 {
			t.Fatalf("workers=%d: codec.encode.workers gauge = %v, want 1", workers, got)
		}
		if got := snap.Gauges["codec.decode.workers"]; got != float64(workers) {
			t.Fatalf("workers=%d: codec.decode.workers gauge = %v", workers, got)
		}
	}
}

// TestEncodeWriteErrorPropagates: a sink that fails mid-stream must
// surface the write error, not succeed.
func TestEncodeWriteErrorPropagates(t *testing.T) {
	tr := fuzzTrace(t, 71, 4, 1500)
	err := Encode(&failAfterWriter{limit: 100_000}, tr)
	if err == nil {
		t.Fatal("encode to failing sink succeeded")
	}
	if !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("wrong error: %v", err)
	}
}

type failAfterWriter struct {
	n     int
	limit int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		return 0, fmt.Errorf("sink full after %d bytes", w.n)
	}
	w.n += len(p)
	return len(p), nil
}
