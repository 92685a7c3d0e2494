package workload

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"pas2p/internal/logical"
	"pas2p/internal/phase"
	"pas2p/internal/trace"
)

func TestSynthesizeDeterministicAndDecodable(t *testing.T) {
	spec := SynthSpec{Procs: 8, TargetEvents: 20_000, Seed: 42}
	var a, b bytes.Buffer
	metaA, err := Synthesize(&a, spec)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if _, err := Synthesize(&b, spec); err != nil {
		t.Fatalf("Synthesize again: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same spec produced different bytes")
	}
	if got := spec.EventCount(); got != int64(metaA.Events) {
		t.Fatalf("EventCount = %d, meta declares %d", got, metaA.Events)
	}
	if int64(metaA.Events) > spec.TargetEvents {
		t.Fatalf("emitted %d events, over target %d", metaA.Events, spec.TargetEvents)
	}

	tr, err := trace.Decode(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(tr.Events) != int(metaA.Events) || tr.Procs != spec.Procs {
		t.Fatalf("decoded %d events / %d procs, want %d / %d",
			len(tr.Events), tr.Procs, metaA.Events, spec.Procs)
	}
	if tr.AET <= 0 {
		t.Fatal("non-positive AET in header")
	}
}

// TestSynthesizeAnalyzable proves the generated trace is consistent
// under the PAS2P ordering and yields the expected phase structure,
// and that the streaming pipeline produces the identical phase table.
func TestSynthesizeAnalyzable(t *testing.T) {
	spec := SynthSpec{Procs: 8, TargetEvents: 12_000, Seed: 7, CollEvery: 5}
	var buf bytes.Buffer
	if _, err := Synthesize(&buf, spec); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	data := buf.Bytes()

	tr, err := trace.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	l, err := logical.Order(tr)
	if err != nil {
		t.Fatalf("Order: %v", err)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("logical.Validate: %v", err)
	}
	an, err := phase.Extract(l, phase.DefaultConfig())
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if len(an.Phases) == 0 {
		t.Fatal("no phases found in synthetic trace")
	}
	// The ring body repeats heavily: the dominant phase must carry a
	// large weight relative to the distinct phase count.
	tb, err := an.BuildTable(1)
	if err != nil {
		t.Fatalf("BuildTable: %v", err)
	}
	maxW := 0
	for _, row := range tb.Rows {
		if row.Weight > maxW {
			maxW = row.Weight
		}
	}
	if maxW < 100 {
		t.Fatalf("dominant phase weight %d; synthetic trace did not fold into repeating phases", maxW)
	}

	// Streaming path, forced to spill, must match bit for bit.
	br, err := trace.NewBlockReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewBlockReader: %v", err)
	}
	rs, err := br.RankStreams()
	if err != nil {
		t.Fatalf("RankStreams: %v", err)
	}
	tick, err := logical.StreamOrder(rs)
	if err != nil {
		t.Fatalf("StreamOrder: %v", err)
	}
	res, err := phase.ExtractStreamTable(context.Background(), tick, tick.Meta(), 1, phase.StreamConfig{
		Config:         phase.DefaultConfig(),
		MemBudgetBytes: 1,
		SpillDir:       t.TempDir(),
	})
	if err != nil {
		t.Fatalf("ExtractStreamTable: %v", err)
	}
	defer res.Close()
	if !reflect.DeepEqual(res.Table.Rows, tb.Rows) {
		t.Fatalf("streamed table differs from in-core:\n stream: %+v\n incore: %+v", res.Table.Rows, tb.Rows)
	}
	if res.Stats.SpilledPhases == 0 && len(an.Phases) > 1 {
		t.Fatal("budget=1 never spilled")
	}
}

func TestSynthSpecValidation(t *testing.T) {
	if _, err := Synthesize(nil, SynthSpec{Procs: 1, TargetEvents: 100}); err == nil {
		t.Fatal("accepted 1 proc")
	}
	if _, err := Synthesize(nil, SynthSpec{Procs: 8, TargetEvents: 3}); err == nil {
		t.Fatal("accepted target below one iteration")
	}
}

// TestSynthesizeBytesPinned pins the SHA-256 of one synthesized
// tracefile, ID column included, so a change to the streaming writer
// that moves a byte of what Synthesize writes fails here.
func TestSynthesizeBytesPinned(t *testing.T) {
	h := sha256.New()
	if _, err := Synthesize(h, SynthSpec{Procs: 8, TargetEvents: 20_000, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	const want = "d92f75add8a005e3a801d69a5ca57b5452860cd2fca2e0f4a13f01943e6d6732"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("synthesized tracefile sha256 %s, want %s", got, want)
	}
}
