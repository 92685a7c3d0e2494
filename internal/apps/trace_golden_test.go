package apps

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"

	"pas2p/internal/logical"
	"pas2p/internal/phase"
	"pas2p/internal/trace"
)

// traceGoldenFile holds one line per (app, ranks): the run's elapsed
// time and a per-rank digest of its event stream.
const traceGoldenFile = "testdata/trace_golden.txt"

// rankDigest is an FNV-1a digest over every observable field of a
// rank's events, in order: everything phase extraction, the signature
// and the cost model can see of an application.
func rankDigest(evs []trace.Event) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for i := range evs {
		e := &evs[i]
		put(int64(e.Kind))
		put(int64(e.Peer))
		put(int64(e.Tag))
		put(e.Size)
		put(int64(e.CollOp))
		put(int64(e.Involved))
		put(int64(e.Enter))
		put(int64(e.Exit))
		put(e.RelA)
		put(e.RelB)
	}
	return h.Sum64()
}

// traceGoldenLines traces every registered app at its small workload
// on 8 and 16 ranks and renders one golden line per run.
func traceGoldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, name := range Names() {
		for _, procs := range []int{8, 16} {
			res, _ := runTraced(t, name, procs, smallWorkload[name])
			tr := res.Recording.Trace()
			var b strings.Builder
			fmt.Fprintf(&b, "%s/%d elapsed=%d events=%d", name, procs, int64(res.Elapsed), len(tr.Events))
			for r, evs := range tr.PerProcess() {
				fmt.Fprintf(&b, " r%d=%016x", r, rankDigest(evs))
			}
			lines = append(lines, b.String())
		}
	}
	return lines
}

// TestAppTraceGolden pins every app's event stream and makespan bit
// for bit. The apps declare their computation through Compute; any
// host-side work they do must leave this file unchanged.
func TestAppTraceGolden(t *testing.T) {
	data, err := os.ReadFile(traceGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := traceGoldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("golden mismatch:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// TestRecordedTraceMatchesNewTrace checks a traced run's recording
// against NewTrace over copies of the same per-process streams, every
// field included (the golden digest above leaves Number, LT and
// ComputeBefore out): the trace it assembles, and each process stream
// of a second run's recording as Drain reads it, once, with Meta.
func TestRecordedTraceMatchesNewTrace(t *testing.T) {
	for _, name := range Names() {
		for _, procs := range []int{8, 16} {
			res, _ := runTraced(t, name, procs, smallWorkload[name])
			rec := res.Recording
			tr := rec.Trace()
			per := tr.PerProcess()
			streams := make([][]trace.Event, len(per))
			for p, evs := range per {
				streams[p] = append([]trace.Event(nil), evs...)
			}
			rebuilt, err := trace.NewTrace(tr.AppName, tr.Procs, streams, tr.AET)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, procs, err)
			}
			if !reflect.DeepEqual(rebuilt, tr) {
				t.Errorf("%s/%d: recorded trace differs from NewTrace over its streams", name, procs)
			}
			if rec.Meta() != rebuilt.Meta() {
				t.Errorf("%s/%d: recording Meta %+v, NewTrace's %+v", name, procs, rec.Meta(), rebuilt.Meta())
			}
			again, _ := runTraced(t, name, procs, smallWorkload[name])
			src := again.Recording.Drain()
			if src.Meta() != rebuilt.Meta() {
				t.Errorf("%s/%d: Drain Meta %+v, NewTrace's %+v", name, procs, src.Meta(), rebuilt.Meta())
			}
			for p, want := range streams {
				if got := drainStream(t, src, p); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%d: process %d drains %d events differing from NewTrace's %d",
						name, procs, p, len(got), len(want))
				}
			}
		}
	}
}

// drainStream reads process p's stream from src to its end.
func drainStream(t *testing.T, src logical.EventSource, p int) []trace.Event {
	t.Helper()
	var out []trace.Event
	var e trace.Event
	for {
		ok, err := src.NextEvent(p, &e)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// TestRecordingAnalysisMatchesTrace holds stage A over a traced run's
// recording, drained while the ranks record it as predict.Sign drains
// it, to stage A over the trace a second run's recording assembles,
// for every app: the same analysis and the same table.
func TestRecordingAnalysisMatchesTrace(t *testing.T) {
	for _, name := range Names() {
		res, _ := runTraced(t, name, 8, smallWorkload[name])
		cfg := phase.StreamConfig{Config: phase.DefaultConfig()}
		want, err := phase.Analyze(context.Background(), logical.SourceFromTrace(res.Recording.Trace()), cfg, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		run, _ := startTraced(t, name, 8, smallWorkload[name])
		src := run.Recording.Drain()
		got, err := phase.Analyze(context.Background(), src, cfg, 1, nil)
		if err != nil {
			src.Stop()
		}
		if _, werr := run.Wait(); werr != nil {
			t.Fatalf("%s: %v", name, werr)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		an, tb, wantAn, wantTb := got.Analysis, got.Table, want.Analysis, want.Table
		if !reflect.DeepEqual(an, wantAn) {
			t.Errorf("%s: analysis of the drained recording differs from the assembled trace's", name)
		}
		if !reflect.DeepEqual(tb, wantTb) {
			t.Errorf("%s: table of the drained recording differs from the assembled trace's:\n got %+v\nwant %+v", name, tb, wantTb)
		}
	}
}
