package predict

import (
	"runtime"
	"testing"
	"time"

	"pas2p/internal/machine"
	"pas2p/internal/mpi"
)

// partialTotals returns each rank's event count from a traced run of
// app on d.
func partialTotals(t *testing.T, app mpi.App, d *machine.Deployment) []int64 {
	t.Helper()
	traced, err := mpi.Run(app, mpi.RunConfig{Deployment: d, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	totals := make([]int64, app.Procs)
	for p, evs := range traced.Recording.Trace().PerProcess() {
		totals[p] = int64(len(evs))
	}
	return totals
}

// TestPartialExecPinned pins the baseline's PET and Cost on 16 ranks
// of cluster A. The values were recorded with every rank simulated to
// the end of the run in free mode after its observation window; the
// ranks now retire there, so any drift means retiring is not exact.
func TestPartialExecPinned(t *testing.T) {
	want := []struct {
		app       string
		pet, cost int64
	}{
		{"cg", 6084793941789, 918170643775},
		{"lu", 780563131944, 116491472130},
		{"sweep3d", 4887655616053, 619802644092},
		{"moldy", 3549430137926, 529677853909},
	}
	for _, w := range want {
		app := mkApp(t, w.app, 16, "")
		d := dep(t, machine.ClusterA(), 16)
		res, err := DefaultPartialExec().Predict(app, d, partialTotals(t, app, d))
		if err != nil {
			t.Fatalf("%s: %v", w.app, err)
		}
		if int64(res.PET) != w.pet || int64(res.Cost) != w.cost {
			t.Errorf("%s: PET %d Cost %d, want PET %d Cost %d",
				w.app, int64(res.PET), int64(res.Cost), w.pet, w.cost)
		}
	}
}

// TestPartialExecLeavesNoGoroutines: a partial execution ends by
// unwinding every rank goroutine once all ranks have retired.
func TestPartialExecLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, name := range []string{"cg", "lu"} {
		app := mkApp(t, name, 8, "classA")
		d := dep(t, machine.ClusterA(), 8)
		totals := partialTotals(t, app, d)
		for i := 0; i < 3; i++ {
			if _, err := DefaultPartialExec().Predict(app, d, totals); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
