package predict

import (
	"cmp"
	"fmt"
	"testing"
	"time"

	"pas2p/internal/machine"
	"pas2p/internal/mpi"
)

// peteCeilings is the golden accuracy table: each row's prediction
// error must stay under its recorded ceiling, and its phase table must
// keep the recorded shape.
//
// The C→C rows (base == target, so PETE isolates the signature
// methodology — phase extraction, warm-occurrence pair measurement,
// Equation (1) — from any cross-machine modelling error) have ceilings
// a comfortable margin above today's measured PETE, so they catch
// methodology regressions without flaking on benign drift. lu is the
// reason they exist: its SSOR wavefront pipelines phase occurrences,
// and before the pair-bias (ETScale) correction its classD/128 PETE
// was 14.3% — the lone outlier against siblings all under 2%.
//
// The 8- and 16-rank rows are the paper's cross-machine evaluation
// (Tables 3–7) at each app's default workload: a PETE bound, the exact
// phase count, a minimum of relevant phases and, for the rows marked
// deterministic, a rerun that must reproduce the outcome.
var peteCeilings = []struct {
	app, workload string
	procs         int
	base, target  string  // machines, as deployOn names them
	ceiling       float64 // percent
	phases        int     // exact phase count (0 = unchecked)
	relevantMin   int
	coverageMin   float64 // relevant rows' Eq. 1 mass over the base AET
	deterministic bool    // a rerun must reproduce the outcome
	slow          bool    // skipped under -short
}{
	{app: "cg", workload: "classB", procs: 64, base: "C", target: "C", ceiling: 1.5}, // measured 0.573%
	{app: "bt", workload: "classB", procs: 64, base: "C", target: "C", ceiling: 3.0}, // measured 1.750%
	{app: "sp", workload: "classB", procs: 64, base: "C", target: "C", ceiling: 3.0}, // measured 1.875%
	{app: "ft", workload: "classB", procs: 64, base: "C", target: "C", ceiling: 1.0}, // measured 0.000%
	{app: "lu", workload: "classB", procs: 64, base: "C", target: "C", ceiling: 5.0}, // measured 3.833%
	// measured 2.374% (14.299% before ETScale)
	{app: "lu", workload: "classD", procs: 128, base: "C", target: "C", ceiling: 3.0, relevantMin: 1, slow: true},

	// Cross-machine, 8 ranks, measured PETE in the comments.
	{app: "ft", procs: 8, base: "A", target: "B", ceiling: 1.0, phases: 3, relevantMin: 2},                      // 0.000%
	{app: "bt", procs: 8, base: "A", target: "B", ceiling: 3.0, phases: 5, relevantMin: 2},                      // 1.833%
	{app: "sp", procs: 8, base: "A", target: "B", ceiling: 3.0, phases: 5, relevantMin: 2},                      // 1.900%
	{app: "pop", procs: 8, base: "A", target: "B", ceiling: 3.0, phases: 8, relevantMin: 2},                     // 1.527%
	{app: "smg2000", procs: 8, base: "A", target: "B", ceiling: 2.0, phases: 4, relevantMin: 3},                 // 0.834%
	{app: "sweep3d", procs: 8, base: "A", target: "B", ceiling: 1.0, phases: 2, relevantMin: 1},                 // 0.000%
	{app: "ep", procs: 8, base: "A", target: "B", ceiling: 1.0, phases: 4, relevantMin: 1},                      // 0.000%
	{app: "is", procs: 8, base: "A", target: "B", ceiling: 1.0, phases: 4, relevantMin: 3},                      // 0.001%
	{app: "masterworker", procs: 8, base: "A", target: "B", ceiling: 1.0, relevantMin: 1, coverageMin: 0.5},     // 0.000%
	{app: "cg", procs: 8, base: "A", target: "B", ceiling: 1.0, phases: 7, relevantMin: 3, deterministic: true}, // 0.267%
	{app: "cg", procs: 8, base: "A", target: "C", ceiling: 1.0, phases: 7, relevantMin: 3, deterministic: true}, // 0.267%
	{app: "cg", procs: 8, base: "A", target: "B4x4cyclic", ceiling: 2.0, phases: 7, deterministic: true},        // 0.269%
	{app: "gromacs", procs: 8, base: "B", target: "C", ceiling: 1.0, phases: 6, relevantMin: 2},                 // 0.234%
	{app: "moldy", procs: 8, base: "C", target: "C", ceiling: 1.0, phases: 6, relevantMin: 3},                   // 0.076%
	{app: "lu", procs: 16, base: "C", target: "A8", ceiling: 6.0, phases: 9, relevantMin: 7},                    // 4.519%
}

// fastRowWall bounds the wall time of one prediction in a row that is
// not slow.
const fastRowWall = 60 * time.Second

// deployOn lays procs ranks out on a named machine: a Table 2 preset,
// or one of the variants the rows name.
func deployOn(name string, procs int) (*machine.Deployment, error) {
	switch name {
	case "A8": // Table 7: cluster A restricted to 8 cores
		return machine.Deploy("A", 8, procs)
	case "B4x4cyclic": // cluster B shrunk to 4 nodes × 4 cores, ranks dealt round-robin
		cl := machine.ClusterB()
		cl.Nodes, cl.CoresPerNode = 4, 4
		return machine.NewDeployment(cl, procs, machine.MapCyclic)
	}
	return machine.Deploy(name, 0, procs)
}

// TestPETECeilings pins per-application prediction-error ceilings and
// phase-table shapes.
func TestPETECeilings(t *testing.T) {
	for _, tc := range peteCeilings {
		tc := tc
		name := fmt.Sprintf("%s-%s-%d", tc.app, cmp.Or(tc.workload, "default"), tc.procs)
		if tc.base != "C" || tc.target != "C" {
			name += "-" + tc.base + "-" + tc.target
		}
		t.Run(name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("large workload skipped under -short")
			}
			base, err := deployOn(tc.base, tc.procs)
			if err != nil {
				t.Fatal(err)
			}
			target, err := deployOn(tc.target, tc.procs)
			if err != nil {
				t.Fatal(err)
			}
			exp := Experiment{
				App:           mkApp(t, tc.app, tc.procs, tc.workload),
				Base:          base,
				Target:        target,
				EventOverhead: mpi.PAS2PEventOverhead,
			}
			start := time.Now()
			out, err := Run(exp)
			wall := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if out.PETEPercent > tc.ceiling {
				t.Errorf("PETE %.3f%% exceeds ceiling %.1f%% (PET %v vs AET %v)",
					out.PETEPercent, tc.ceiling, out.PET, out.AETTarget)
			}
			if tc.phases > 0 && out.Total != tc.phases {
				t.Errorf("%d phases, want %d", out.Total, tc.phases)
			} else if out.Total < 1 {
				t.Error("no phase extracted")
			}
			if out.Relevant < tc.relevantMin {
				t.Errorf("%d relevant phases, want at least %d", out.Relevant, tc.relevantMin)
			}
			tb := out.Table
			if cov := tb.PredictedAET(true).Seconds() / tb.BaseAET.Seconds(); cov < tc.coverageMin {
				t.Errorf("relevant phases cover %.3f of the base AET, want at least %g", cov, tc.coverageMin)
			}
			if !tc.slow && wall > fastRowWall {
				t.Errorf("prediction took %v, want at most %v", wall, fastRowWall)
			}
			if tc.deterministic {
				rerun, err := Run(exp)
				if err != nil {
					t.Fatal(err)
				}
				if diffs := out.Diff(rerun); len(diffs) > 0 {
					t.Errorf("rerun diverged: %v", diffs)
				}
			}
		})
	}
}
