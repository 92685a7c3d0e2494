package phase

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

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
// BuildTable, the reference AnalyzeTrace must reproduce.
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

// assertAnalyzeMatchesStaged fails unless AnalyzeTrace's analysis and
// table equal the staged pipeline's.
func assertAnalyzeMatchesStaged(t *testing.T, label string, tr *trace.Trace, warm int) {
	t.Helper()
	cfg := DefaultConfig()
	wantAn, wantTb, err := stagedAnalysis(tr, cfg, warm)
	if err != nil {
		t.Fatalf("%s: staged: %v", label, err)
	}
	an, tb, err := AnalyzeTrace(context.Background(), logical.SourceFromTrace(tr), cfg, warm)
	if err != nil {
		t.Fatalf("%s: AnalyzeTrace: %v", label, err)
	}
	assertAnalysesEqual(t, label, wantAn, an)
	if !reflect.DeepEqual(wantTb, tb) {
		t.Fatalf("%s: AnalyzeTrace table differs from Order/Extract/BuildTable:\n got %+v\nwant %+v", label, tb, wantTb)
	}
}

// TestAnalyzeTraceMatchesStaged pins AnalyzeTrace to the staged
// pipeline on every registered app at 8 and 16 ranks, at warm indices
// 0 (no advance), 1 (the default), 2 and 50 (past most weights).
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
				for _, warm := range []int{0, 1, 2, 50} {
					assertAnalyzeMatchesStaged(t, fmt.Sprintf("%s/%d/warm%d", name, procs, warm), res.Recording.Trace(), warm)
				}
			}
		})
	}
}

// TestAnalysisWithoutLogical: the analyses AnalyzeTrace and the
// streaming extraction return carry no Logical. Validate must still
// check their tiling, from the tick count, and BuildTable must return
// ErrNoLogical instead of dereferencing the missing Logical.
func TestAnalysisWithoutLogical(t *testing.T) {
	tr := genTrace(t, 3, 8)
	l, err := logical.Order(tr)
	if err != nil {
		t.Fatal(err)
	}
	an, _, err := AnalyzeTrace(context.Background(), logical.SourceFromTrace(tr), DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	streamed := streamExtractFor(t, tr, 1, DefaultConfig(), 0).Analysis
	for label, a := range map[string]*Analysis{"AnalyzeTrace": an, "stream": streamed} {
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
	if _, _, err := AnalyzeTrace(context.Background(), logical.SourceFromTrace(tr), DefaultConfig(), -1); err == nil || wantErr == nil ||
		err.Error() != wantErr.Error() {
		t.Errorf("negative warm index: AnalyzeTrace error %v, staged error %v", err, wantErr)
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

// FuzzAnalyzeTrace runs AnalyzeTrace and the staged pipeline on random
// programs, each with or without one event dropped, and requires the
// same analysis and table from both, or the same error.
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
		an, tb, err := AnalyzeTrace(context.Background(), logical.SourceFromTrace(tr), cfg, warm)
		if err != nil || wantErr != nil {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("AnalyzeTrace error %v, staged error %v", err, wantErr)
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
		if _, _, err := AnalyzeTrace(context.Background(), logical.SourceFromTrace(tr), DefaultConfig(), 0); !errors.Is(err, logical.ErrNoOrder) {
			t.Errorf("key %v: AnalyzeTrace error %v, want ErrNoOrder", k, err)
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		br, err := trace.NewBlockReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := AnalyzeStream(context.Background(), br, StreamConfig{Config: DefaultConfig()}, 0); !errors.Is(err, logical.ErrNoOrder) {
			t.Errorf("key %v: AnalyzeStream error %v, want ErrNoOrder", k, err)
		}
	}
}
