package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"pas2p/internal/vtime"
)

// buildTestTrace makes a small 2-process trace: p0 sends twice, p1
// receives twice, with interleaved physical times.
func buildTestTrace(t *testing.T) *Trace {
	t.Helper()
	p0 := []Event{
		{Process: 0, Number: 0, Kind: Send, Involved: 2, CollOp: -1, Peer: 1, Tag: 7,
			Size: 100, Enter: 10, Exit: 12, RelA: 0, RelB: 0},
		{Process: 0, Number: 1, Kind: Send, Involved: 2, CollOp: -1, Peer: 1, Tag: 7,
			Size: 200, Enter: 30, Exit: 33, RelA: 0, RelB: 1},
	}
	p1 := []Event{
		{Process: 1, Number: 0, Kind: Recv, Involved: 2, CollOp: -1, Peer: 0, Tag: 7,
			Size: 100, Enter: 5, Exit: 20, RelA: 0, RelB: 0},
		{Process: 1, Number: 1, Kind: Recv, Involved: 2, CollOp: -1, Peer: 0, Tag: 7,
			Size: 200, Enter: 25, Exit: 40, RelA: 0, RelB: 1},
	}
	tr, err := NewTrace("test", 2, [][]Event{p0, p1}, 50)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestNewTraceAssignsGlobalIDs: the in-memory trace carries no ID, and
// the tracefile's ID column is each record's position in the file.
// buildTestTrace's occurrence order by enter time (p1#0 at 5, p0#0 at
// 10, p1#1 at 25, p0#1 at 30) is not its file order, so a writer that
// numbered the column by occurrence ([1 3 0 2]) fails here; the
// 3-process trace spans several blocks, so one that restarted the
// numbering at a block fails too.
func TestNewTraceAssignsGlobalIDs(t *testing.T) {
	for _, tr := range []*Trace{buildTestTrace(t), fuzzTrace(t, 11, 3, 700)} {
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		ids := idColumn(buf.Bytes())
		if len(ids) != len(tr.Events) {
			t.Fatalf("%d records, want %d", len(ids), len(tr.Events))
		}
		for i, id := range ids {
			if id != uint64(i) {
				t.Fatalf("%d-process trace: ID column %v..., want each record's position", tr.Procs, ids[:min(len(ids), 8)])
			}
		}
	}
}

// idColumn returns the ID column of every record of the v2 tracefile
// data, in file order.
func idColumn(data []byte) []uint64 {
	records, _ := recordLayout(data)
	ids := make([]uint64, len(records))
	for i, off := range records {
		ids[i] = binary.LittleEndian.Uint64(data[off:])
	}
	return ids
}

// recordLayout returns the byte offset of every record of the v2
// tracefile data, in file order, and of every block CRC.
func recordLayout(data []byte) (records, blockCRCs []int) {
	le := binary.LittleEndian
	n := int(le.Uint64(data[16:]))
	off := len(magicV2) + 24 + int(le.Uint16(data[8:])) + 4
	for i := 0; i < n; i++ {
		records = append(records, off)
		off += recordSize
		if (i+1)%blockEvents == 0 || i+1 == n {
			blockCRCs = append(blockCRCs, off)
			off += 4
		}
	}
	return records, blockCRCs
}

// TestEventSize pins Event's layout: its fields are ordered by size,
// so the struct carries no interior padding. A field added or moved
// out of order grows every copy of every recorded event.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 88 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 88", got)
	}
}

// TestRecordingVarintBoundaries records values on either side of the
// packed record's varint boundaries, at the int32 and int64 extremes,
// negative where the field allows it, and across the overlap clamp, on
// processes 0 and 1 (where Peer, RelA and RelB less their bases wrap).
// Each recording, assembled, and a second one drained, must be exactly
// NewTrace over the streams as written out by hand.
func TestRecordingVarintBoundaries(t *testing.T) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	cases := []struct {
		name string
		in   []Event
		want []Event // the rebuilt stream, less Process, Number and LT
	}{
		{"one byte and two", []Event{
			{Kind: Send, Size: 63, RelA: -64, RelB: 0x7f, Involved: 2, Peer: 63, Tag: -64, Enter: 0x7f, Exit: 0x7f + 63},
			{Kind: Recv, Size: 64, RelA: -65, RelB: 0x80, Involved: 64, Peer: 64, Tag: -65, Enter: 0x7f + 63 + 0x80, Exit: 0x7f + 63 + 0x80 + 64},
		}, []Event{
			{Kind: Send, Size: 63, RelA: -64, RelB: 0x7f, Involved: 2, Peer: 63, Tag: -64, Enter: 0x7f, Exit: 0x7f + 63, ComputeBefore: 0x7f},
			{Kind: Recv, Size: 64, RelA: -65, RelB: 0x80, Involved: 64, Peer: 64, Tag: -65, Enter: 0x7f + 63 + 0x80, Exit: 0x7f + 63 + 0x80 + 64, ComputeBefore: 0x80},
		}},
		{"2^31", []Event{
			{Kind: Send, Size: 1 << 31, RelA: -1 << 31, RelB: 1<<31 - 1, Involved: math.MaxInt32, Peer: math.MinInt32, Tag: math.MaxInt32, Enter: 1 << 31, Exit: 1<<32 - 1},
			{Kind: Recv, Size: -1<<31 - 1, RelA: 1<<31 + 1, RelB: -1 << 31, Involved: math.MinInt32, Peer: math.MaxInt32, Tag: math.MinInt32, Enter: 1 << 32, Exit: 1<<32 - 1<<31},
			{Kind: Collective, CollOp: 127, Peer: math.MinInt32, Tag: math.MaxInt32, RelB: 1 << 31, Enter: 1 << 32, Exit: 1 << 32},
		}, []Event{
			{Kind: Send, Size: 1 << 31, RelA: -1 << 31, RelB: 1<<31 - 1, Involved: math.MaxInt32, Peer: math.MinInt32, Tag: math.MaxInt32, Enter: 1 << 31, Exit: 1<<32 - 1, ComputeBefore: 1 << 31},
			{Kind: Recv, Size: -1<<31 - 1, RelA: 1<<31 + 1, RelB: -1 << 31, Involved: math.MinInt32, Peer: math.MaxInt32, Tag: math.MinInt32, Enter: 1 << 32, Exit: 1<<32 - 1<<31, ComputeBefore: 1},
			{Kind: Collective, CollOp: 127, Peer: math.MinInt32, Tag: math.MaxInt32, RelB: 1 << 31, Enter: 1 << 32, Exit: 1 << 32, ComputeBefore: 1 << 31},
		}},
		{"int64 extremes", []Event{
			// Exit − Enter wraps to 1. The second Enter less the first
			// Exit (MinInt64) wraps to −1, so Record clamps it. The
			// third starts at the second's Exit and wraps past it.
			{Kind: Send, Size: maxI, RelA: minI, RelB: maxI, Enter: maxI, Exit: minI},
			{Kind: Recv, Size: minI, RelA: maxI, RelB: minI, Enter: maxI, Exit: maxI},
			{Kind: Send, Size: -1, RelA: maxI, RelB: minI, Enter: maxI, Exit: minI},
		}, []Event{
			{Kind: Send, Size: maxI, RelA: minI, RelB: maxI, Enter: maxI, Exit: minI, ComputeBefore: maxI},
			{Kind: Recv, Size: minI, RelA: maxI, RelB: minI, Enter: minI, Exit: maxI},
			{Kind: Send, Size: -1, RelA: maxI, RelB: minI, Enter: maxI, Exit: minI},
		}},
		{"negative size, tag and peer", []Event{
			{Kind: Collective, CollOp: -1, Size: -4096, Involved: -3, Peer: -1, Tag: -7, Enter: 10, Exit: 5},
		}, []Event{
			{Kind: Collective, CollOp: -1, Size: -4096, Involved: -3, Peer: -1, Tag: -7, Enter: 10, Exit: 5, ComputeBefore: 10},
		}},
		{"overlap clamp", []Event{
			{Kind: Send, Enter: 500, Exit: 1000},
			{Kind: Recv, Enter: 900, Exit: 950},  // ends before the previous exit
			{Kind: Recv, Enter: 900, Exit: 1200}, // ends after it
			{Kind: Send, Enter: 1300, Exit: 1300},
		}, []Event{
			{Kind: Send, Enter: 500, Exit: 1000, ComputeBefore: 500},
			{Kind: Recv, Enter: 1000, Exit: 1000},
			{Kind: Recv, Enter: 1000, Exit: 1200},
			{Kind: Send, Enter: 1300, Exit: 1300, ComputeBefore: 100},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			record := func() *Recording {
				rec := StartRecording("bounds", 2)
				for p := range 2 {
					in := append([]Event(nil), tc.in...)
					for i := range in {
						rec.Recorder(p).Record(&in[i])
					}
				}
				rec.Close(1)
				return rec
			}
			streams := make([][]Event, 2)
			for p := range streams {
				streams[p] = append([]Event(nil), tc.want...)
				for i := range streams[p] {
					streams[p][i].Process, streams[p][i].Number, streams[p][i].LT = int32(p), int64(i), NoLT
				}
			}
			want, err := NewTrace("bounds", 2, streams, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := record().Trace(); !reflect.DeepEqual(got, want) {
				t.Fatalf("Trace events %#v, want %#v", got.Events, want.Events)
			}
			for p, got := range drained(record()) {
				if !reflect.DeepEqual(got, streams[p]) {
					t.Fatalf("process %d streamed %#v, want %#v", p, got, streams[p])
				}
			}
		})
	}
}

func TestNewTraceRejectsBadStreams(t *testing.T) {
	if _, err := NewTrace("x", 2, [][]Event{{}}, 0); err == nil {
		t.Error("stream count mismatch should fail")
	}
	bad := []Event{{Process: 9, Number: 0}}
	if _, err := NewTrace("x", 1, [][]Event{bad}, 0); err == nil {
		t.Error("wrong process id should fail")
	}
	bad2 := []Event{{Process: 0, Number: 5}}
	if _, err := NewTrace("x", 1, [][]Event{bad2}, 0); err == nil {
		t.Error("wrong numbering should fail")
	}
}

func TestValidateCatchesOrphanRecv(t *testing.T) {
	tr := buildTestTrace(t)
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	// Point a recv at a send that does not exist.
	for i := range tr.Events {
		if tr.Events[i].Kind == Recv {
			tr.Events[i].RelB = 99
			break
		}
	}
	if err := tr.Validate(); err == nil {
		t.Error("orphan recv should fail validation")
	}
}

func TestTypeCode(t *testing.T) {
	s := Event{Kind: Send, Involved: 2}
	r := Event{Kind: Recv, Involved: 2}
	c := Event{Kind: Collective, Involved: 64}
	if s.TypeCode() != 2 || r.TypeCode() != -2 || c.TypeCode() != 64 {
		t.Errorf("type codes: %d %d %d", s.TypeCode(), r.TypeCode(), c.TypeCode())
	}
}

func TestCommSignature(t *testing.T) {
	// Same pattern shifted across ranks compares equal.
	a := Event{Process: 0, Kind: Send, Peer: 1, Tag: 3, CollOp: -1}
	b := Event{Process: 5, Kind: Send, Peer: 6, Tag: 3, CollOp: -1}
	if a.CommSignature() != b.CommSignature() {
		t.Error("shifted identical pattern should share a signature")
	}
	c := Event{Process: 0, Kind: Recv, Peer: 1, Tag: 3, CollOp: -1}
	if a.CommSignature() == c.CommSignature() {
		t.Error("send and recv must differ")
	}
	d := Event{Process: 0, Kind: Send, Peer: 1, Tag: 4, CollOp: -1}
	if a.CommSignature() == d.CommSignature() {
		t.Error("different tags must differ")
	}
	e := Event{Process: 0, Kind: Collective, Peer: -1, Tag: 0, CollOp: 3}
	f := Event{Process: 1, Kind: Collective, Peer: -1, Tag: 0, CollOp: 4}
	if e.CommSignature() == f.CommSignature() {
		t.Error("different collectives must differ")
	}
}

func TestRecorderDerivesFields(t *testing.T) {
	rec := StartRecording("derive", 4)
	rec.Recorder(3).Record(&Event{Kind: Send, Enter: 100, Exit: 120})
	rec.Recorder(3).Record(&Event{Kind: Recv, Enter: 150, Exit: 160})
	rec.Close(0)
	evs := drained(rec)[3]
	if len(evs) != 2 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].Process != 3 || evs[0].Number != 0 || evs[1].Number != 1 {
		t.Error("process/number not derived")
	}
	if evs[0].ComputeBefore != 100 {
		t.Errorf("first ComputeBefore = %v, want 100", evs[0].ComputeBefore)
	}
	if evs[1].ComputeBefore != 30 {
		t.Errorf("second ComputeBefore = %v, want 30 (150-120)", evs[1].ComputeBefore)
	}
	if evs[0].LT != NoLT {
		t.Error("fresh events must have no logical time")
	}
}

// drained reads every process stream of the closed recording rec back
// through Drain, each to its end.
func drained(rec *Recording) [][]Event {
	d := rec.Drain()
	streams := make([][]Event, d.Meta().Procs)
	for p := range streams {
		var e Event
		for {
			if ok, _ := d.NextEvent(p, &e); !ok {
				break
			}
			streams[p] = append(streams[p], e)
		}
	}
	return streams
}

// TestRecorderChunksHoldMaximalRecords records events whose every field
// takes its widest varint. Each chunk must keep the capacity it was
// made with (firstChunk, doubling up to recorderChunk): a record longer
// than maxRecord would make Record's append regrow it. Each chunk but
// the last must also be closed only once it could not hold another
// maximal record.
func TestRecorderChunksHoldMaximalRecords(t *testing.T) {
	rec := StartRecording("maximal", 1)
	r := rec.Recorder(0)
	var in []Event
	var last vtime.Time
	for i := 0; i < 3000; i++ {
		// ComputeBefore is MaxInt64 and Exit − Enter MinInt64, both
		// wrapping, so each event ends just before the previous one.
		e := Event{Kind: Send, CollOp: -128, Size: math.MinInt64, RelA: math.MinInt64, RelB: math.MinInt64,
			Involved: math.MinInt32, Peer: math.MinInt32, Tag: math.MinInt32,
			Enter: last + math.MaxInt64, Exit: last - 1}
		r.Record(&e)
		in = append(in, e)
		last = e.Exit
	}
	rec.Close(0)
	chunks := rec.queued[0] // nobody has read them
	packed := 0
	for k, c := range chunks {
		if want := min(firstChunk<<k, recorderChunk); cap(c) != want {
			t.Fatalf("chunk %d has capacity %d, want %d", k, cap(c), want)
		}
		if k < len(chunks)-1 && cap(c)-len(c) >= maxRecord {
			t.Errorf("chunk %d closed with %d of %d bytes free", k, cap(c)-len(c), cap(c))
		}
		packed += len(c)
	}
	if perEvent := packed / len(in); perEvent < 60 {
		t.Fatalf("%d bytes per record: the events are not maximal", perEvent)
	}
	if got, want := drained(rec)[0], deriveFields(0, in); !reflect.DeepEqual(got, want) {
		t.Fatalf("recorded %#v, want %#v", got[:2], want[:2])
	}
}

// TestRecordingSpansChunks records streams longer than one chunk, and
// one stream with no event, twice: one recording drained, the other
// assembled (Trace), which must be NewTrace over the drained streams.
func TestRecordingSpansChunks(t *testing.T) {
	record := func() *Recording {
		rec := StartRecording("chunks", 3)
		for p := range 2 { // process 2 records nothing
			for i := 0; i < 2*recorderChunk+p+3; i++ {
				at := vtime.Time(10 * i)
				rec.Recorder(p).Record(&Event{Kind: Collective, Peer: -1, Enter: at + vtime.Time(p), Exit: at + 5})
			}
		}
		rec.Close(1000)
		return rec
	}
	streams := drained(record())
	if got, want := len(streams[1]), 2*recorderChunk+4; got != want {
		t.Fatalf("recorded %d events, want %d", got, want)
	}
	if len(streams[2]) != 0 {
		t.Fatalf("process 2 streams %d events, want none", len(streams[2]))
	}
	// NewTrace rejects streams with a wrong process or number.
	want, err := NewTrace("chunks", 3, streams, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rec := record()
	if rec.Meta() != want.Meta() {
		t.Fatalf("Meta %+v, want %+v", rec.Meta(), want.Meta())
	}
	if !reflect.DeepEqual(rec.Trace(), want) {
		t.Fatal("Recording.Trace differs from NewTrace over the drained streams")
	}
}

func TestStats(t *testing.T) {
	tr := buildTestTrace(t)
	s := tr.Stats()
	if s.Events != 4 || s.Sends != 2 || s.Recvs != 2 || s.Collectives != 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.Bytes != 300 {
		t.Errorf("bytes = %d, want 300 (send volumes only)", s.Bytes)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := buildTestTrace(t)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != EncodedSize(tr.Meta()) {
		t.Errorf("EncodedSize = %d, actual %d", EncodedSize(tr.Meta()), buf.Len())
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a trace at all......."))); err == nil {
		t.Error("garbage should fail to decode")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail to decode")
	}
	// Truncated: valid header claiming events but no bodies.
	tr := buildTestTrace(t)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := Decode(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace should fail to decode")
	}
	// A JSON trace is no tracefile: its leading brace is a bad magic.
	js, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(js)); !errors.Is(err, ErrCorrupt) ||
		errors.Is(err, ErrRetiredFormat) || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("JSON trace: Decode error %v, want a bad-magic ErrCorrupt", err)
	}
}

// Property: binary round trip preserves randomly generated traces.
func TestQuickBinaryRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(seed int64, nEv uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nEv)%64 + 1
		evs := make([]Event, n)
		var tphys vtime.Time
		for i := range evs {
			tphys += vtime.Time(rng.Intn(1000) + 1)
			evs[i] = Event{
				Process: 0, Number: int64(i),
				Kind:     Kind(rng.Intn(3)),
				Involved: int32(rng.Intn(64) + 2),
				CollOp:   int8(rng.Intn(8)) - 1,
				Peer:     int32(rng.Intn(8)) - 1,
				Tag:      int32(rng.Intn(100)),
				Size:     int64(rng.Intn(1 << 20)),
				Enter:    tphys, Exit: tphys + vtime.Time(rng.Intn(100)),
				LT:   int64(rng.Intn(1000)) - 1,
				RelA: int64(rng.Intn(4)), RelB: int64(rng.Intn(1000)),
				ComputeBefore: vtime.Duration(rng.Intn(10000)),
			}
		}
		tr, err := NewTrace("fuzz", 1, [][]Event{evs}, vtime.Duration(rng.Intn(1e9)))
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, tr)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestPerProcessGrouping(t *testing.T) {
	tr := buildTestTrace(t)
	per := tr.PerProcess()
	if len(per) != 2 || len(per[0]) != 2 || len(per[1]) != 2 {
		t.Fatalf("grouping wrong: %d/%d/%d", len(per), len(per[0]), len(per[1]))
	}
	for p, evs := range per {
		for i := range evs {
			if int(evs[i].Process) != p || evs[i].Number != int64(i) {
				t.Errorf("proc %d idx %d holds (%d,%d)", p, i, evs[i].Process, evs[i].Number)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if Send.String() != "Send" || Recv.String() != "Recv" || Collective.String() != "Coll" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() != "Kind(?)" {
		t.Error("unknown kind should stringify safely")
	}
}
