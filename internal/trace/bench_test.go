package trace

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"pas2p/internal/vtime"
)

func syntheticTrace(events int) *Trace {
	evs := make([]Event, events)
	var tphys vtime.Time
	for i := range evs {
		tphys += 1000
		kind := Send
		if i%2 == 1 {
			kind = Recv
		}
		evs[i] = Event{
			Process: 0, Number: int64(i), Kind: kind, Involved: 2,
			CollOp: -1, Peer: 1, Tag: int32(i % 4), Size: 4096,
			Enter: tphys, Exit: tphys + 500,
			RelA: 0, RelB: int64(i / 2), ComputeBefore: 500,
		}
	}
	tr, err := NewTrace("bench", 1, [][]Event{evs}, vtime.Duration(tphys))
	if err != nil {
		panic(err)
	}
	return tr
}

// benchRecording records 128 ranks of 1000 ring sends each, the width
// perfbench's predict workload traces at, and closes the recording.
func benchRecording() *Recording {
	rec := StartRecording("bench", 128)
	for p := range 128 {
		var tphys vtime.Time
		for i := 0; i < 1000; i++ {
			tphys += vtime.Time(1000 + (p*7+i*13)%97)
			rec.Recorder(p).Record(&Event{Kind: Send, Involved: 2, CollOp: -1, Peer: int32((p + 1) % 128),
				Size: 4096, Enter: tphys, Exit: tphys + 500, RelA: int64(p), RelB: int64(i)})
		}
	}
	rec.Close(0)
	return rec
}

// benchTrace keeps BenchmarkRecording's assembled traces reachable.
var benchTrace *Trace

// BenchmarkRecording measures a traced run's recording, 128 ranks of
// 1000 events each: Record, which packs every event into a fresh
// recording (reporting the packed and the chunk bytes per event); and
// the two ways out of it, each reading a fresh recording once: Trace,
// which assembles the contiguous trace a tracefile writer needs, and
// Drain, which stage A reads, every stream to its end.
func BenchmarkRecording(b *testing.B) {
	b.Run("Record", func(b *testing.B) {
		b.ReportAllocs()
		var rec *Recording
		for i := 0; i < b.N; i++ {
			rec = benchRecording()
		}
		packed := 0
		for _, chunks := range rec.queued {
			for _, c := range chunks {
				packed += len(c)
			}
		}
		b.ReportMetric(float64(packed)/(128*1000), "bytes/event")
		b.ReportMetric(float64(rec.ChunkBytes())/(128*1000), "chunk-bytes/event")
		b.ReportMetric(128*1000, "events")
	})
	b.Run("Trace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rec := benchRecording()
			b.StartTimer()
			benchTrace = rec.Trace()
		}
		b.ReportMetric(128*1000, "events")
	})
	b.Run("Drain", func(b *testing.B) {
		b.ReportAllocs()
		var e Event
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rec := benchRecording()
			b.StartTimer()
			d := rec.Drain()
			for p := 0; p < 128; p++ {
				for {
					ok, err := d.NextEvent(p, &e)
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
				}
			}
		}
		b.ReportMetric(128*1000, "events")
	})
}

// BenchmarkEncodeRanks measures writing the 128-rank recorded trace.
func BenchmarkEncodeRanks(b *testing.B) {
	tr := benchRecording().Trace()
	b.ReportAllocs()
	b.SetBytes(EncodedSize(tr.Meta()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Encode(io.Discard, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode measures binary tracefile writing throughput.
func BenchmarkEncode(b *testing.B) {
	tr := syntheticTrace(10000)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.SetBytes(EncodedSize(tr.Meta()))
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Encode(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode measures binary tracefile reading throughput.
func BenchmarkDecode(b *testing.B) {
	tr := syntheticTrace(10000)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// largeBenchTrace lazily builds the shared 1M-event trace (and its
// encoding) the large benchmarks measure against. Building it once
// keeps `go test -bench` setup time flat across benchmarks.
var largeBench struct {
	once sync.Once
	tr   *Trace
	enc  []byte
}

func largeBenchTrace(b *testing.B) (*Trace, []byte) {
	b.Helper()
	largeBench.once.Do(func() {
		largeBench.tr = syntheticTrace(1_000_000)
		var buf bytes.Buffer
		if err := Encode(&buf, largeBench.tr); err != nil {
			panic(err)
		}
		largeBench.enc = buf.Bytes()
	})
	return largeBench.tr, largeBench.enc
}

// BenchmarkDecodeParallel measures block verification +
// deserialisation throughput on the 1M-event tracefile. The decode
// pool runs on GOMAXPROCS workers; sweep it with the -cpu flag, e.g.
//
//	go test ./internal/trace -run xxx -cpu 1,2 -bench DecodeParallel
func BenchmarkDecodeParallel(b *testing.B) {
	_, enc := largeBenchTrace(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer() // time the decode, not building and encoding the trace
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(enc)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyStream measures the streaming checksum pass `repo
// fsck` runs: full detection strength without materialising events.
func BenchmarkVerifyStream(b *testing.B) {
	_, enc := largeBenchTrace(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer() // time the verification, not building and encoding the trace
	for i := 0; i < b.N; i++ {
		if _, err := VerifyStream(bytes.NewReader(enc)); err != nil {
			b.Fatal(err)
		}
	}
}
