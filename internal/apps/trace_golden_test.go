package apps

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"

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
			var b strings.Builder
			fmt.Fprintf(&b, "%s/%d elapsed=%d events=%d", name, procs, int64(res.Elapsed), len(res.Trace.Events))
			for r, evs := range res.Trace.PerProcess() {
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

// TestRecordedTraceMatchesNewTrace checks the trace a traced run
// assembles from its recorders against NewTrace over copies of the
// same per-process streams, every field included (the golden digest
// above leaves Number, LT and ComputeBefore out).
func TestRecordedTraceMatchesNewTrace(t *testing.T) {
	for _, name := range Names() {
		for _, procs := range []int{8, 16} {
			res, _ := runTraced(t, name, procs, smallWorkload[name])
			per := res.Trace.PerProcess()
			streams := make([][]trace.Event, len(per))
			for p, evs := range per {
				streams[p] = append([]trace.Event(nil), evs...)
			}
			rebuilt, err := trace.NewTrace(res.Trace.AppName, res.Trace.Procs, streams, res.Trace.AET)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, procs, err)
			}
			if !reflect.DeepEqual(rebuilt, res.Trace) {
				t.Errorf("%s/%d: recorded trace differs from NewTrace over its streams", name, procs)
			}
		}
	}
}
