package predict

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/trace"
)

// TestSignAllocatesOneEventCopy bounds what Sign allocates for lu
// classA at 64 ranks: the recorders' chunks hold the one copy of the
// events that stage A needs, so everything Sign allocates (simulator,
// recording, analysis, construction run) stays below 1.5 copies. A
// trace assembled beside the recording would take it past 2. Not
// parallel: TotalAlloc counts every goroutine of the process.
func TestSignAllocatesOneEventCopy(t *testing.T) {
	e := Experiment{
		App:           mkApp(t, "lu", 64, "classA"),
		Base:          dep(t, machine.ClusterC(), 64),
		EventOverhead: mpi.PAS2PEventOverhead,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	signed, err := Sign(context.Background(), e)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	events := signed.Traced.Recording.Meta().Events
	oneCopy := events * uint64(unsafe.Sizeof(trace.Event{}))
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Sign allocated %d bytes for %d events (%.2f copies of %d bytes)",
		got, events, float64(got)/float64(oneCopy), oneCopy)
	if limit := oneCopy * 3 / 2; got >= limit {
		t.Errorf("Sign allocated %d bytes, want < %d (1.5 × %d events × %d bytes)",
			got, limit, events, unsafe.Sizeof(trace.Event{}))
	}
}
