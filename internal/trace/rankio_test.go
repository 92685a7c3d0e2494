package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"pas2p/internal/vtime"
)

// unevenTrace builds a valid proc-grouped trace where process p owns
// counts[p] events, exercising section boundaries that do not align
// with block boundaries (including empty sections).
func unevenTrace(t *testing.T, counts []int) *Trace {
	t.Helper()
	rec := StartRecording("uneven", len(counts))
	for p, n := range counts {
		var tphys vtime.Time
		for i := 0; i < n; i++ {
			tphys += vtime.Time(100 + i%37)
			rec.Recorder(p).Record(&Event{
				Kind: Collective, Involved: int32(len(counts)), CollOp: 1,
				Peer: -1, Tag: 0, Size: int64(64 + i%128),
				Enter: tphys, Exit: tphys + 50,
				RelA: 0, RelB: int64(i),
			})
		}
	}
	rec.Close(0)
	tr, err := NewTrace("uneven", len(counts), drained(rec), 12345)
	if err != nil {
		t.Fatalf("building uneven trace: %v", err)
	}
	return tr
}

func rankStreamsFor(t *testing.T, tr *Trace) (*RankStreams, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	br, err := NewBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := br.RankStreams()
	if err != nil {
		t.Fatalf("rank streams: %v", err)
	}
	return rs, buf.Bytes()
}

// TestRankStreamsMatchPerProcess is the core property: for every
// process, the rank cursor yields exactly the events PerProcess slices
// out of a full decode, across section shapes that cover empty
// sections, sub-block sections, exact block multiples, and sections
// straddling many blocks.
func TestRankStreamsMatchPerProcess(t *testing.T) {
	shapes := [][]int{
		{1},
		{0, 5, 0},
		{3, 700, 3},                       // middle section spans blocks
		{blockEvents, blockEvents},        // sections on exact block boundaries
		{blockEvents - 1, 1, blockEvents}, // off-by-one around the boundary
		{100, 0, 2000, 1, 0, 731},
	}
	for _, counts := range shapes {
		tr := unevenTrace(t, counts)
		rs, _ := rankStreamsFor(t, tr)
		per := tr.PerProcess()
		for p := 0; p < tr.Procs; p++ {
			var got []Event
			var e Event
			for {
				ok, err := rs.NextEvent(p, &e)
				if err != nil {
					t.Fatalf("counts %v proc %d: %v", counts, p, err)
				}
				if !ok {
					break
				}
				got = append(got, e)
			}
			if !reflect.DeepEqual(got, append([]Event(nil), per[p]...)) {
				t.Fatalf("counts %v: proc %d stream diverges from PerProcess", counts, p)
			}
			// Exhausted cursors stay exhausted.
			if ok, err := rs.NextEvent(p, &e); ok || err != nil {
				t.Fatalf("counts %v proc %d: NextEvent after end = %v, %v", counts, p, ok, err)
			}
		}
	}
}

// TestRankStreamsFuzzTraces runs the same property over the seeded
// random traces the codec tests use (all three event kinds, multiple
// blocks per section).
func TestRankStreamsFuzzTraces(t *testing.T) {
	for _, s := range []struct {
		seed   int64
		procs  int
		events int
	}{
		{101, 2, 600},
		{102, 5, 1111},
		{103, 8, 64},
	} {
		tr := fuzzTrace(t, s.seed, s.procs, s.events)
		rs, _ := rankStreamsFor(t, tr)
		per := tr.PerProcess()
		for p := 0; p < tr.Procs; p++ {
			c := rs.cursor(p)
			var e Event
			for i := range per[p] {
				ok, err := c.Next(&e)
				if err != nil || !ok {
					t.Fatalf("shape %+v proc %d event %d: ok=%v err=%v", s, p, i, ok, err)
				}
				if e != per[p][i] {
					t.Fatalf("shape %+v proc %d event %d diverges", s, p, i)
				}
			}
			if ok, err := c.Next(&e); ok || err != nil {
				t.Fatalf("shape %+v proc %d: streams past its %d events (%v)", s, p, len(per[p]), err)
			}
		}
	}
}

// TestRankStreamsDetectCorruption: a bit flip inside a block must be
// caught by the cursor that touches the block, with the standard
// checksum-mismatch error, even though the bound probes that located
// the sections did not verify it.
func TestRankStreamsDetectCorruption(t *testing.T) {
	tr := unevenTrace(t, []int{600, 600})
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	headerEnd := 8 + 24 + len(tr.AppName) + 4
	raw[headerEnd+10] ^= 0x40 // first block, proc 0's section

	br, err := NewBlockReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := br.RankStreams()
	if err != nil {
		t.Fatalf("rank streams over corrupt block: construction should defer detection, got %v", err)
	}
	var e Event
	_, err = rs.NextEvent(0, &e)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt block read error = %v, want checksum mismatch matching ErrCorrupt", err)
	}
	// The undamaged section still reads cleanly.
	if ok, err := rs.NextEvent(1, &e); !ok || err != nil {
		t.Fatalf("clean section after corruption elsewhere: ok=%v err=%v", ok, err)
	}
}

// TestRankStreamsTruncatedFile: a file cut before the trailer is
// rejected at construction (the trailer magic lives at a computable
// offset).
func TestRankStreamsTruncatedFile(t *testing.T) {
	tr := unevenTrace(t, []int{100, 100})
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-15]
	br, err := NewBlockReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := br.RankStreams(); err == nil || !strings.Contains(err.Error(), "trailer") {
		t.Fatalf("truncated file: RankStreams err = %v, want trailer error", err)
	}
}

// TestRankStreamsRequirements: a non-random-access source is refused
// with an explicit error.
func TestRankStreamsRequirements(t *testing.T) {
	tr := unevenTrace(t, []int{10})
	var v2buf bytes.Buffer
	if err := Encode(&v2buf, tr); err != nil {
		t.Fatal(err)
	}
	// A bare io.Reader (no ReadAt) cannot back rank streams.
	br2, err := NewBlockReader(struct{ io.Reader }{bytes.NewReader(v2buf.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := br2.RankStreams(); err == nil || !strings.Contains(err.Error(), "random-access") {
		t.Fatalf("sequential-source RankStreams err = %v, want random-access requirement", err)
	}
}

// TestRankStreamsUngroupedFile: BlockWriter does not validate process
// grouping, so a file with interleaved processes can exist on disk;
// the per-record section check must refuse it rather than hand back
// another process's events.
func TestRankStreamsUngroupedFile(t *testing.T) {
	const n = 40
	evs := make([]Event, n)
	var tphys vtime.Time
	for i := range evs {
		tphys += 100
		evs[i] = Event{
			Process: int32(i % 2), Number: int64(i / 2),
			Kind: Collective, Involved: 2, CollOp: 1, Peer: -1,
			Enter: tphys, Exit: tphys + 10, RelA: 0, RelB: int64(i / 2),
		}
	}
	var buf bytes.Buffer
	bw, err := NewBlockWriter(&buf, Meta{AppName: "interleaved", Procs: 2, Events: n}, CodecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Append(evs); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	br, err := NewBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := br.RankStreams()
	if err != nil {
		// Acceptable: detected already at bound recovery.
		return
	}
	var e Event
	for p := 0; p < 2; p++ {
		for {
			ok, err := rs.NextEvent(p, &e)
			if err != nil {
				if !strings.Contains(err.Error(), "not grouped") {
					t.Fatalf("ungrouped file error = %v, want grouping complaint", err)
				}
				return
			}
			if !ok {
				break
			}
		}
	}
	t.Fatal("ungrouped file streamed without complaint")
}
