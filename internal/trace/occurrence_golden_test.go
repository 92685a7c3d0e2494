package trace_test

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"testing"

	"pas2p/internal/phase"
	"pas2p/internal/trace"
)

// TestOccurrenceNumberedFileReads: a v2 tracefile written while Encode
// still numbered the ID column by global occurrence (sweep3d on 4
// ranks) reads as before, since no reader uses the column. Decode,
// VerifyStream and Analyze over its rank streams accept it. Today's
// Encode of the trace it holds decodes to the same trace and differs
// from it only inside the ID columns and the block CRCs over them; the
// file CRC, a fixed residue over self-checksummed regions (FileCRC),
// is the same.
func TestOccurrenceNumberedFileReads(t *testing.T) {
	old, err := os.ReadFile("testdata/golden_v2_occurrence.pas2p")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if tr.AppName != "sweep3d" || tr.Procs != 4 {
		t.Fatalf("golden holds %s on %d ranks, want sweep3d on 4", tr.AppName, tr.Procs)
	}
	meta, err := trace.VerifyStream(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("VerifyStream: %v", err)
	}
	if meta != tr.Meta() {
		t.Fatalf("VerifyStream meta %+v, Decode's %+v", meta, tr.Meta())
	}
	positional := true
	for i, id := range trace.IDColumn(old) {
		positional = positional && id == uint64(i)
	}
	if positional {
		t.Fatal("golden's ID column is file positions, want occurrence numbers")
	}

	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cur := buf.Bytes()
	again, err := trace.Decode(bytes.NewReader(cur))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, tr) {
		t.Fatal("re-encoded file decodes to another trace")
	}
	if len(cur) != len(old) || bytes.Equal(cur, old) {
		t.Fatalf("re-encoded file is %d bytes (equal: %v), golden %d and occurrence-numbered", len(cur), bytes.Equal(cur, old), len(old))
	}
	if !bytes.Equal(trace.MaskIDsAndBlockCRCs(cur), trace.MaskIDsAndBlockCRCs(old)) {
		t.Fatal("re-encoded file differs from the golden outside ID columns and block CRCs")
	}
	oldCRC, ok1 := trace.FileCRC(old)
	curCRC, ok2 := trace.FileCRC(cur)
	if !ok1 || !ok2 || oldCRC != curCRC {
		t.Fatalf("file CRC %#x (%v), golden's %#x (%v)", curCRC, ok2, oldCRC, ok1)
	}

	var tables []*phase.Table
	for _, data := range [][]byte{old, cur} {
		br, err := trace.NewBlockReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := br.RankStreams()
		if err != nil {
			t.Fatal(err)
		}
		res, err := phase.Analyze(context.Background(), rs, phase.StreamConfig{Config: phase.DefaultConfig()}, 1, nil)
		if err != nil {
			t.Fatalf("Analyze over the rank streams: %v", err)
		}
		tables = append(tables, res.Table)
	}
	if len(tables[0].Rows) == 0 || !reflect.DeepEqual(tables[0], tables[1]) {
		t.Fatalf("golden's phase table %+v, re-encoded file's %+v", tables[0], tables[1])
	}
}
