package predict

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pas2p/internal/apps"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/vtime"
)

// TestSameMachineTargetMatchesFreshRun predicts every registered app
// on cluster C for cluster C, as the paper's Tables 3, 8 and 9 do:
// once with the base deployment itself as the target, once with a
// separately built equal deployment. Either way the target AET must
// equal a fresh run of the app on the target, and PET, SET, the phase
// table and the phase counts must equal stage A and the signature's
// execution driven by hand.
func TestSameMachineTargetMatchesFreshRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 52 full predictions")
	}
	const overhead = 8 * vtime.Microsecond
	for _, name := range apps.Names() {
		for _, procs := range []int{8, 16} {
			label := fmt.Sprintf("%s/%d", name, procs)
			app := mkApp(t, name, procs, "")
			base, err := machine.Deploy("C", 0, procs)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := machine.Deploy("C", 0, procs)
			if err != nil {
				t.Fatal(err)
			}

			fresh, err := mpi.Run(app, mpi.RunConfig{Deployment: twin})
			if err != nil {
				t.Fatalf("%s: fresh run: %v", label, err)
			}
			signed, err := Sign(context.Background(), Experiment{App: app, Base: base, EventOverhead: overhead})
			if err != nil {
				t.Fatalf("%s: sign: %v", label, err)
			}
			exec, err := signed.Build.Signature.Execute(twin)
			if err != nil {
				t.Fatalf("%s: execute: %v", label, err)
			}
			wantRelevant := len(signed.Table.RelevantRows())

			for _, tc := range []struct {
				name   string
				target *machine.Deployment
			}{{"same", base}, {"equal", twin}} {
				out, err := Run(Experiment{App: app, Base: base, Target: tc.target, EventOverhead: overhead})
				if err != nil {
					t.Fatalf("%s/%s: %v", label, tc.name, err)
				}
				if out.AETTarget != fresh.Elapsed {
					t.Errorf("%s/%s: AETTarget %d, fresh run %d", label, tc.name, out.AETTarget, fresh.Elapsed)
				}
				if out.PET != exec.PET || out.SET != exec.SET {
					t.Errorf("%s/%s: PET/SET %d/%d, by hand %d/%d", label, tc.name, out.PET, out.SET, exec.PET, exec.SET)
				}
				if want := PETE(exec.PET, fresh.Elapsed); out.PETEPercent != want {
					t.Errorf("%s/%s: PETE %v, want %v", label, tc.name, out.PETEPercent, want)
				}
				if want := 100 * exec.SET.Seconds() / fresh.Elapsed.Seconds(); out.SETvsAETPercent != want {
					t.Errorf("%s/%s: SET/AET %v, want %v", label, tc.name, out.SETvsAETPercent, want)
				}
				if !reflect.DeepEqual(out.Table, signed.Table) {
					t.Errorf("%s/%s: phase table differs from stage A's", label, tc.name)
				}
				if out.Total != signed.Table.TotalPhases || out.Relevant != wantRelevant {
					t.Errorf("%s/%s: phases %d/%d, stage A %d/%d", label, tc.name,
						out.Total, out.Relevant, signed.Table.TotalPhases, wantRelevant)
				}
			}
		}
	}
}
