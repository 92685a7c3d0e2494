package signature

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"pas2p/internal/apps"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/obs"
	"pas2p/internal/sim"
	"pas2p/internal/vtime"
)

// TestBuildAndExecuteStopEarly: once the last snapshot is stored, and
// once the last phase is measured, the runs end without simulating the
// rest of the application, so they send fewer messages than a full
// run does.
func TestBuildAndExecuteStopEarly(t *testing.T) {
	app := iterApp(8, 120)
	base := deployOn(t, machine.ClusterA(), 8)
	tb, _ := analyze(t, app, base)
	full, err := mpi.Run(app, mpi.RunConfig{Deployment: base})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	opts := lightOptions()
	opts.Observer = o
	br, err := Build(app, tb, base, opts)
	if err != nil {
		t.Fatal(err)
	}
	built := o.Reg().Counter("sim.messages").Value()
	if _, err := br.Signature.Execute(base); err != nil {
		t.Fatal(err)
	}
	executed := o.Reg().Counter("sim.messages").Value() - built
	if all := full.Stats.Messages; built >= all || executed >= all {
		t.Errorf("messages: construction %d, execution %d, full run %d; both runs must stop early",
			built, executed, all)
	}
}

// TestBuildExecuteLeaveNoGoroutines: every construction and execution
// run now ends by unwinding parked rank goroutines, and a deadlocked
// run aborts its ranks; neither may leave goroutines behind.
func TestBuildExecuteLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, name := range []string{"cg", "lu"} {
		app, err := apps.Make(name, 8, "")
		if err != nil {
			t.Fatal(err)
		}
		base := deployOn(t, machine.ClusterC(), 8)
		tb, _ := analyze(t, app, base)
		for i := 0; i < 3; i++ {
			br, err := Build(app, tb, base, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := br.Signature.Execute(deployOn(t, machine.ClusterA(), 8)); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, err := sim.Run(sim.Config{Deployment: deployOn(t, machine.ClusterA(), 4), Name: "deadlock",
		Body: func(p *sim.Proc) {
			p.Advance(vtime.Microsecond)
			p.Recv((p.Rank()+1)%p.Size(), 0)
		}})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want a deadlock", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
