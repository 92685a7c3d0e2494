package logical

import (
	"reflect"
	"testing"

	"pas2p/internal/apps"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/trace"
)

// assertOrderMatchesOracle requires the Logical that Order collects
// from the tick stream to be identical to the oracle's: the same
// permuted and renumbered event copy with LT = tick, and the same
// tick table.
func assertOrderMatchesOracle(t *testing.T, name string, tr *trace.Trace) {
	t.Helper()
	want, err := orderOracle(tr)
	if err != nil {
		t.Fatalf("%s: oracle order: %v", name, err)
	}
	got, err := Order(tr)
	if err != nil {
		t.Fatalf("%s: order: %v", name, err)
	}
	if !reflect.DeepEqual(want.Trace, got.Trace) {
		for i := range want.Trace.Events {
			if i < len(got.Trace.Events) && want.Trace.Events[i] != got.Trace.Events[i] {
				t.Fatalf("%s: event %d diverges:\n  oracle: %+v\n  order:  %+v",
					name, i, want.Trace.Events[i], got.Trace.Events[i])
			}
		}
		t.Fatalf("%s: collected trace differs from the oracle's", name)
	}
	if !reflect.DeepEqual(want.Ticks, got.Ticks) {
		t.Fatalf("%s: tick table differs from the oracle's (%d vs %d ticks)",
			name, len(got.Ticks), len(want.Ticks))
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestOrderMatchesOracleApps checks the collected Logical against the
// oracle on the smallest workload of every registered application.
func TestOrderMatchesOracleApps(t *testing.T) {
	workloads := map[string]string{
		"bt": "classA", "sp": "classA", "cg": "classA", "ft": "classA",
		"lu": "classA", "ep": "classA", "is": "classA",
		"gromacs":      "d.villin",
		"masterworker": "rounds5",
		"moldy":        "tip4p-short",
		"pop":          "synthetic60",
		"smg2000":      "-n 120 solver 3",
		"sweep3d":      "sweep.150",
	}
	d, err := machine.NewDeployment(machine.ClusterA(), 16, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range apps.Names() {
		wl, ok := workloads[name]
		if !ok {
			t.Errorf("app %q has no workload registered here; add it", name)
			continue
		}
		name, wl := name, wl
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			app, err := apps.Make(name, 16, wl)
			if err != nil {
				t.Fatal(err)
			}
			res, err := mpi.Run(app, mpi.RunConfig{Deployment: d, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			assertOrderMatchesOracle(t, name, res.Recording.Trace())
		})
	}
}

// appTrace traces a registered application on cluster A.
func appTrace(t testing.TB, name string, procs int, workload string) *trace.Trace {
	t.Helper()
	d, err := machine.NewDeployment(machine.ClusterA(), procs, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	app, err := apps.Make(name, procs, workload)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpi.Run(app, mpi.RunConfig{Deployment: d, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Recording.Trace()
}

// TestStreamOrderMatchesOracleWide holds the order to the oracle on
// the two wavefront apps at 64 ranks, in memory and over a v2 file's
// rank streams. Their ticks are sparse and their receives retry many
// times, so assignment runs end early and each tick gathers few of
// the merge's leaves.
func TestStreamOrderMatchesOracleWide(t *testing.T) {
	for _, c := range []struct{ app, workload string }{{"lu", "classA"}, {"sweep3d", "sweep.150"}} {
		c := c
		t.Run(c.app, func(t *testing.T) {
			t.Parallel()
			assertStreamMatchesOrder(t, c.app, appTrace(t, c.app, 64, c.workload))
		})
	}
}

// TestOrderRejectsBadShape: inputs the engine cannot stream fail with
// an error instead of a panic.
func TestOrderRejectsBadShape(t *testing.T) {
	ev := trace.Event{Process: 0, Kind: trace.Send, Involved: 2, CollOp: -1, Peer: 1, RelA: 0}
	for name, tr := range map[string]*trace.Trace{
		"negative procs": {AppName: "x", Procs: -1, Events: []trace.Event{ev}},
		"proc overflow":  {AppName: "x", Procs: 1, Events: []trace.Event{ev, {Process: 3}}},
	} {
		if _, err := Order(tr); err == nil {
			t.Errorf("%s: Order accepted a malformed trace", name)
		}
	}
}
