package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"pas2p/internal/vtime"
)

// iterativeStream builds a per-rank stream with heavy repetition, like
// real SPMD traces.
func iterativeStream(proc, iters int) []Event {
	rec := NewRecorder(proc)
	var tphys vtime.Time
	for i := 0; i < iters; i++ {
		tphys += 1000
		rec.Record(&Event{Kind: Send, Involved: 2, CollOp: -1, Peer: int32(proc) + 1,
			Tag: 0, Size: 2048, Enter: tphys, Exit: tphys + 200,
			RelA: int64(proc), RelB: int64(i)})
		tphys += 500
		rec.Record(&Event{Kind: Recv, Involved: 2, CollOp: -1, Peer: int32(proc) + 1,
			Tag: 0, Size: 2048, Enter: tphys, Exit: tphys + 300,
			RelA: int64(proc) + 1, RelB: int64(i)})
		tphys += 800
		rec.Record(&Event{Kind: Collective, Involved: 4, CollOp: 3, Peer: -1,
			Tag: 0, Size: 8, Enter: tphys, Exit: tphys + 100,
			RelA: 0, RelB: int64(i)})
	}
	return recorded(rec)
}

func repetitiveTrace(t testing.TB, procs, iters int) *Trace {
	t.Helper()
	streams := make([][]Event, procs)
	for p := 0; p < procs; p++ {
		streams[p] = iterativeStream(p, iters)
		// The senders in this synthetic trace reference themselves, so
		// receives resolve; patch receives to point at proc p's sends.
		for i := range streams[p] {
			if streams[p][i].Kind == Recv {
				streams[p][i].RelA = int64(p)
			}
		}
	}
	tr, err := NewTrace("ztest", procs, streams, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCompressRoundTrip(t *testing.T) {
	tr := repetitiveTrace(t, 4, 50)
	var buf bytes.Buffer
	if err := Compress(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("compressed round trip mismatch")
	}
}

func TestCompressionRatioOnRepetitiveTrace(t *testing.T) {
	tr := repetitiveTrace(t, 8, 500)
	var flat, comp bytes.Buffer
	if err := Encode(&flat, tr); err != nil {
		t.Fatal(err)
	}
	if err := Compress(&comp, tr); err != nil {
		t.Fatal(err)
	}
	ratio := float64(flat.Len()) / float64(comp.Len())
	if ratio < 5 {
		t.Errorf("compression ratio %.1fx too low for a repetitive trace (%d -> %d bytes)",
			ratio, flat.Len(), comp.Len())
	}
	// The achieved ratio itself is reported by BenchmarkCompressionRatio
	// (same trace shape) via b.ReportMetric, where tooling can track it.
}

func TestCompressRoundTripWithLTs(t *testing.T) {
	tr := repetitiveTrace(t, 2, 10)
	for i := range tr.Events {
		tr.Events[i].LT = int64(i)
	}
	var buf bytes.Buffer
	if err := Compress(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("LT-carrying round trip mismatch")
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	if _, err := Decompress(bytes.NewReader([]byte("garbage data here......"))); err == nil {
		t.Error("garbage should fail")
	}
	tr := repetitiveTrace(t, 2, 10)
	var buf bytes.Buffer
	if err := Compress(&buf, tr); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Decompress(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input should fail")
	}
}

// Fuzz-ish: random irregular streams survive the round trip (no
// repetition to exploit, but correctness must hold).
func TestCompressRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		procs := rng.Intn(3) + 1
		streams := make([][]Event, procs)
		for p := 0; p < procs; p++ {
			rec := NewRecorder(p)
			var tphys vtime.Time
			n := rng.Intn(40) + 1
			for i := 0; i < n; i++ {
				tphys += vtime.Time(rng.Intn(5000) + 1)
				kind := Kind(rng.Intn(3))
				peer := int32(rng.Intn(procs))
				if kind == Collective {
					peer = -1
				}
				rec.Record(&Event{
					Kind: kind, Involved: int32(rng.Intn(8) + 2),
					CollOp: int8(rng.Intn(8)) - 1, Peer: peer,
					Tag: int32(rng.Intn(16)), Size: int64(rng.Intn(1 << 16)),
					Enter: tphys, Exit: tphys + vtime.Time(rng.Intn(500)),
					RelA: int64(rng.Intn(procs)), RelB: int64(rng.Intn(100)),
				})
			}
			streams[p] = recorded(rec)
		}
		// Make receive relations resolvable: point them at existing
		// sends or flip them to sends.
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
		var buf bytes.Buffer
		if err := Compress(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got, err := Decompress(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

// TestCompressIndexedLayout pins the Z2 container: new files lead with
// the indexed magic, and the section index makes decompression fan out
// — the decoded trace must be identical at every worker count, and
// identical to the serial decode.
func TestCompressIndexedLayout(t *testing.T) {
	tr := repetitiveTrace(t, 8, 500) // 12k events: above the parallel floor
	var buf bytes.Buffer
	if err := Compress(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), magicZ2[:]) {
		t.Fatalf("compressed file leads with %q, want %q", buf.Bytes()[:8], magicZ2[:])
	}
	// Compression is byte-identical at every worker count.
	for _, w := range []int{1, 2, 4, 8} {
		var again bytes.Buffer
		if err := compress(&again, tr, w); err != nil {
			t.Fatalf("compress(workers=%d): %v", w, err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatalf("compress(workers=%d) bytes differ from default", w)
		}
	}
	// Decompression yields the identical trace at every worker count.
	for _, w := range []int{1, 2, 4, 8, 16} {
		got, err := decompress(bytes.NewReader(buf.Bytes()), w)
		if err != nil {
			t.Fatalf("decompress(workers=%d): %v", w, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("decompress(workers=%d) mismatch", w)
		}
	}
}

// TestDecompressIndexedCorruption: truncated Z2 files and index/body
// length mismatches must fail loudly, not decode to garbage.
func TestDecompressIndexedCorruption(t *testing.T) {
	tr := repetitiveTrace(t, 4, 100)
	var buf bytes.Buffer
	if err := Compress(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(data) / 2, len(data) - 3} {
		if _, err := Decompress(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d/%d decoded successfully", cut, len(data))
		}
	}
	// Appending bytes shifts nothing (sections are length-delimited),
	// but shrinking a section's byte range must trip the exact-consume
	// check: chop the final section body short by rewriting its length.
	// Simpler equivalent: drop the last byte of the last section.
	if _, err := Decompress(bytes.NewReader(data[:len(data)-1])); err == nil {
		t.Error("short final section decoded successfully")
	}
}

func TestDecodeAnySniffsFormats(t *testing.T) {
	tr := repetitiveTrace(t, 2, 20)
	var flat, comp, js bytes.Buffer
	if err := Encode(&flat, tr); err != nil {
		t.Fatal(err)
	}
	if err := Compress(&comp, tr); err != nil {
		t.Fatal(err)
	}
	if err := EncodeJSON(&js, tr); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"flat": &flat, "compressed": &comp, "json": &js} {
		got, err := DecodeAny(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Errorf("%s: DecodeAny mismatch", name)
		}
	}
	if _, err := DecodeAny(bytes.NewReader([]byte("???????????"))); err == nil {
		t.Error("unknown format should fail")
	}
}
