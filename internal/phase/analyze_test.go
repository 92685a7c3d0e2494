package phase

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"pas2p/internal/apps"
	"pas2p/internal/logical"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/trace"
)

// goldenWorkloads maps every registered app to its smallest workload
// that both 8 and 16 ranks accept.
var goldenWorkloads = map[string]string{
	"bt": "classA", "sp": "classA", "cg": "classA", "ft": "classA",
	"lu": "classA", "ep": "classA", "is": "classA",
	"gromacs":      "d.villin",
	"masterworker": "rounds5",
	"moldy":        "tip4p-short",
	"pop":          "synthetic60",
	"smg2000":      "-n 120 solver 3",
	"sweep3d":      "sweep.150",
}

// stagedAnalysis runs stage A one stage at a time: Order, Extract and
// BuildTable, the reference Analyze must reproduce.
func stagedAnalysis(tr *trace.Trace, cfg Config, warm int) (*Analysis, *Table, error) {
	l, err := logical.Order(tr)
	if err != nil {
		return nil, nil, err
	}
	an, err := Extract(l, cfg)
	if err != nil {
		return nil, nil, err
	}
	tb, err := an.BuildTable(warm)
	if err != nil {
		return nil, nil, err
	}
	return an, tb, nil
}

// analyzeTrace runs Analyze over a decoded trace with every behaviour
// matrix resident.
func analyzeTrace(tr *trace.Trace, cfg Config, warm int) (*Analysis, *Table, error) {
	res, err := Analyze(context.Background(), logical.SourceFromTrace(tr), StreamConfig{Config: cfg}, warm, nil)
	if err != nil {
		return nil, nil, err
	}
	return res.Analysis, res.Table, nil
}

// assertAnalyzeMatchesStaged fails unless Analyze's analysis and table
// over the decoded trace equal the staged pipeline's.
func assertAnalyzeMatchesStaged(t *testing.T, label string, tr *trace.Trace, warm int) {
	t.Helper()
	cfg := DefaultConfig()
	wantAn, wantTb, err := stagedAnalysis(tr, cfg, warm)
	if err != nil {
		t.Fatalf("%s: staged: %v", label, err)
	}
	an, tb, err := analyzeTrace(tr, cfg, warm)
	if err != nil {
		t.Fatalf("%s: Analyze: %v", label, err)
	}
	assertAnalysesEqual(t, label, wantAn, an)
	if !reflect.DeepEqual(wantTb, tb) {
		t.Fatalf("%s: Analyze table differs from Order/Extract/BuildTable:\n got %+v\nwant %+v", label, tb, wantTb)
	}
}

// TestAnalyzeTraceMatchesStaged pins Analyze over a decoded trace to
// the staged pipeline on every registered app at 8 and 16 ranks, at
// warm indices 0 (no advance), 1 (the default), 2 and 50 (past most
// weights).
func TestAnalyzeTraceMatchesStaged(t *testing.T) {
	for _, name := range apps.Names() {
		wl, ok := goldenWorkloads[name]
		if !ok {
			t.Errorf("app %q has no golden workload registered; add it", name)
			continue
		}
		name, wl := name, wl
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, procs := range []int{8, 16} {
				app, err := apps.Make(name, procs, wl)
				if err != nil {
					t.Fatal(err)
				}
				d, err := machine.NewDeployment(machine.ClusterA(), procs, machine.MapBlock)
				if err != nil {
					t.Fatal(err)
				}
				res, err := mpi.Run(app, mpi.RunConfig{Deployment: d, Trace: true})
				if err != nil {
					t.Fatal(err)
				}
				tr := res.Recording.Trace()
				for _, warm := range []int{0, 1, 2, 50} {
					assertAnalyzeMatchesStaged(t, fmt.Sprintf("%s/%d/warm%d", name, procs, warm), tr, warm)
				}
			}
		})
	}
}

// TestAnalysisWithoutLogical: the analyses Analyze and the streaming
// extraction return carry no Logical. Validate must still
// check their tiling, from the tick count, and BuildTable must return
// ErrNoLogical instead of dereferencing the missing Logical.
func TestAnalysisWithoutLogical(t *testing.T) {
	tr := genTrace(t, 3, 8)
	l, err := logical.Order(tr)
	if err != nil {
		t.Fatal(err)
	}
	an, _, err := analyzeTrace(tr, DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	streamed := streamExtractFor(t, tr, 1, DefaultConfig(), 0).Analysis
	for label, a := range map[string]*Analysis{"Analyze": an, "stream": streamed} {
		if a.Logical != nil {
			t.Errorf("%s: analysis carries a Logical", label)
		}
		if a.Ticks != l.NumTicks() {
			t.Errorf("%s: Ticks = %d, logical trace has %d", label, a.Ticks, l.NumTicks())
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", label, err)
		}
		if _, err := a.BuildTable(1); !errors.Is(err, ErrNoLogical) {
			t.Errorf("%s: BuildTable error = %v, want ErrNoLogical", label, err)
		}
	}
	_, _, wantErr := stagedAnalysis(tr, DefaultConfig(), -1)
	if _, _, err := analyzeTrace(tr, DefaultConfig(), -1); err == nil || wantErr == nil ||
		err.Error() != wantErr.Error() {
		t.Errorf("negative warm index: Analyze error %v, staged error %v", err, wantErr)
	}
}

// dropEvent returns tr without its k-th event (modulo the event
// count), renumbering the rest of that process's stream. The result
// may leave a receive without its send or a collective short of a
// member.
func dropEvent(t *testing.T, tr *trace.Trace, k int) *trace.Trace {
	t.Helper()
	k %= len(tr.Events)
	streams := make([][]trace.Event, tr.Procs)
	for i, e := range tr.Events {
		if i == k {
			continue
		}
		e.Number = int64(len(streams[e.Process]))
		streams[e.Process] = append(streams[e.Process], e)
	}
	out, err := trace.NewTrace(tr.AppName, tr.Procs, streams, tr.AET)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzAnalyzeTrace runs Analyze over a decoded trace and the staged
// pipeline on random programs, each with or without one event dropped,
// and requires the same analysis and table from both, or the same
// error.
func FuzzAnalyzeTrace(f *testing.F) {
	f.Add(int64(1), 2, 1, -1)
	f.Add(int64(7), 4, 0, 5)
	f.Add(int64(42), 8, 2, 17)
	f.Add(int64(9), 3, 50, 3)
	f.Fuzz(func(t *testing.T, seed int64, procs, warm, drop int) {
		if procs < 2 || procs > 8 || warm < 0 || warm > 64 {
			t.Skip("out of modelled range")
		}
		tr := genTrace(t, seed, procs)
		if drop >= 0 {
			tr = dropEvent(t, tr, drop)
		}
		cfg := DefaultConfig()
		wantAn, wantTb, wantErr := stagedAnalysis(tr, cfg, warm)
		an, tb, err := analyzeTrace(tr, cfg, warm)
		if err != nil || wantErr != nil {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("Analyze error %v, staged error %v", err, wantErr)
			}
			return
		}
		assertAnalysesEqual(t, "fuzz", wantAn, an)
		if !reflect.DeepEqual(wantTb, tb) {
			t.Fatalf("tables differ:\n got %+v\nwant %+v", tb, wantTb)
		}
	})
}

// TestAnalyzeBadRelationKeys: a receive naming a send that cannot
// exist (a sender out of range, a sequence before the first or past
// the last send) or that an earlier receive took is logical.ErrNoOrder
// from both stage-A paths, the streamed one over a v2 file whose
// checksums are valid, never an index panic.
func TestAnalyzeBadRelationKeys(t *testing.T) {
	for _, k := range [][2]int64{{-1, 0}, {2, 0}, {1 << 40, 0}, {0, -1}, {0, 2}, {0, 0}} {
		tr, err := trace.NewTrace("bad-rel", 2, [][]trace.Event{
			{{Number: 0, Kind: trace.Send, Involved: 2, CollOp: -1, Peer: 1, Exit: 1, RelA: 0, RelB: 0},
				{Number: 1, Kind: trace.Send, Involved: 2, CollOp: -1, Peer: 1, Enter: 2, Exit: 3, RelA: 0, RelB: 1}},
			{{Process: 1, Number: 0, Kind: trace.Recv, Involved: 2, CollOp: -1, Exit: 4, RelA: 0, RelB: 0},
				{Process: 1, Number: 1, Kind: trace.Recv, Involved: 2, CollOp: -1, Enter: 5, Exit: 6, RelA: k[0], RelB: k[1]}},
		}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := analyzeTrace(tr, DefaultConfig(), 0); !errors.Is(err, logical.ErrNoOrder) {
			t.Errorf("key %v: Analyze over the trace: error %v, want ErrNoOrder", k, err)
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		br, err := trace.NewBlockReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := br.RankStreams()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Analyze(context.Background(), rs, StreamConfig{Config: DefaultConfig()}, 0, nil); !errors.Is(err, logical.ErrNoOrder) {
			t.Errorf("key %v: Analyze over the rank streams: error %v, want ErrNoOrder", k, err)
		}
	}
}

// v2BlockStride is the byte length of one full v2 event block: 512
// records of 90 bytes and the block's CRC.
const v2BlockStride = 512*90 + 4

// FuzzAnalyzeStream runs Analyze over the rank streams of v2
// tracefiles read in place: a random program's trace, encoded, then
// that file with a byte flipped near a chosen block edge, and the file
// torn there, as FuzzBlockReader damages its files (its seeds, with
// genTrace sizing the program in place of an event count). Under a
// deadline every file gives a table or an error matching
// trace.ErrCorrupt, logical.ErrNoOrder or context.DeadlineExceeded,
// never a panic. Whenever trace.Decode accepts the bytes, the result
// equals Analyze over the decoded trace: the same table, or an error
// of the same class. The rank streams skip only the whole-file CRC, so
// a file that fails just that check may still get a table.
func FuzzAnalyzeStream(f *testing.F) {
	f.Add(int64(7), 3, uint16(0), int8(0), byte(0x41))
	f.Add(int64(1), 1, uint16(1), int8(-1), byte(0xff))
	f.Add(int64(2), 4, uint16(0), int8(1), byte(1))
	f.Add(int64(3), 2, uint16(2), int8(3), byte(0x80))
	f.Add(int64(99), 6, uint16(6), int8(-4), byte(7))
	f.Add(int64(7), 3, uint16(0), int8(-33), byte(2))
	f.Fuzz(func(t *testing.T, seed int64, procs int, blockIdx uint16, delta int8, flip byte) {
		if procs < 1 || procs > 8 {
			t.Skip("out of modelled range")
		}
		tr := genTrace(t, seed, max(procs, 2))
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		headerEnd := 8 + 24 + len(tr.AppName) + 4
		pos := max(0, headerEnd+int(blockIdx)*v2BlockStride+int(delta)) % len(raw)
		flipped := append([]byte(nil), raw...)
		flipped[pos] ^= flip | 1
		for what, data := range map[string][]byte{"clean": raw, "flipped": flipped, "torn": raw[:max(pos, headerEnd)]} {
			checkStreamedAnalysis(t, what, data)
		}
	})
}

// checkStreamedAnalysis holds Analyze over data's rank streams to
// FuzzAnalyzeStream's contract; a clean file must get a table.
func checkStreamedAnalysis(t *testing.T, what string, data []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cfg := StreamConfig{Config: DefaultConfig()}
	var got *StreamResult
	br, err := trace.NewBlockReader(bytes.NewReader(data))
	if err == nil {
		var rs *trace.RankStreams
		if rs, err = br.RankStreams(); err == nil {
			got, err = Analyze(ctx, rs, cfg, 1, nil)
		}
	}
	class := errClass(err)
	if what == "clean" && class != "ok" && class != "deadline" {
		t.Fatalf("clean file: streamed analysis: %v", err)
	}
	if strings.HasPrefix(class, "other") {
		t.Fatalf("%s: streamed analysis: untyped error %v", what, err)
	}
	tr, derr := trace.Decode(bytes.NewReader(data))
	if derr != nil || class == "deadline" {
		return
	}
	want, werr := Analyze(ctx, logical.SourceFromTrace(tr), cfg, 1, nil)
	if wclass := errClass(werr); wclass != class {
		if wclass != "deadline" {
			t.Fatalf("%s: decoded file: streamed error %v, in-memory error %v", what, err, werr)
		}
		return
	}
	if err == nil && !reflect.DeepEqual(got.Table, want.Table) {
		t.Fatalf("%s: streamed table differs from the decoded trace's:\n got %+v\nwant %+v", what, got.Table, want.Table)
	}
}

// errClass names the kind of a stage-A outcome for FuzzAnalyzeStream.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, trace.ErrCorrupt):
		return "corrupt"
	case errors.Is(err, logical.ErrNoOrder):
		return "no order"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	}
	return "other: " + err.Error()
}
