package workload

import (
	"math"
	"testing"

	"pas2p/internal/apps"
	"pas2p/internal/logical"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/phase"
	"pas2p/internal/vtime"
)

// analyzeAt runs an app at one workload and returns its analysis plus
// the measured AET.
func analyzeAt(t testing.TB, name string, procs int, wl string) (*phase.Analysis, vtime.Duration) {
	t.Helper()
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
	l, err := logical.Order(res.Recording.Trace())
	if err != nil {
		t.Fatal(err)
	}
	a, err := phase.Extract(l, phase.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a, res.Elapsed
}

func TestFitValidation(t *testing.T) {
	a, _ := analyzeAt(t, "cg", 8, "classA")
	if _, err := Fit(nil); err == nil {
		t.Error("no points should fail")
	}
	if _, err := Fit([]Point{{Param: 1, Analysis: a}}); err == nil {
		t.Error("single point should fail")
	}
	if _, err := Fit([]Point{{Param: 0, Analysis: a}, {Param: 1, Analysis: a}}); err == nil {
		t.Error("non-positive parameter should fail")
	}
	if _, err := Fit([]Point{{Param: 1, Analysis: a}, {Param: 1, Analysis: a}}); err == nil {
		t.Error("duplicate parameter should fail")
	}
	if _, err := Fit([]Point{{Param: 1, Analysis: a}, {Param: 2, Analysis: nil}}); err == nil {
		t.Error("nil analysis should fail")
	}
}

// TestSyntheticPowerLaw validates the fit on an app whose per-phase
// compute scales exactly as a power of the workload parameter.
func TestSyntheticPowerLaw(t *testing.T) {
	mk := func(scale float64) mpi.App {
		return mpi.App{
			Name:  "synth",
			Procs: 8,
			Body: func(c *mpi.Comm) {
				n := c.Size()
				iters := int(10 * scale) // weight grows linearly
				for i := 0; i < iters; i++ {
					c.Compute(4e7 * scale * scale) // ET grows quadratically (compute-dominated)
					c.SendrecvN((c.Rank()+1)%n, 0, 1024, (c.Rank()+n-1)%n, 0)
					c.Allreduce([]float64{1}, mpi.Sum)
				}
			},
		}
	}
	analyze := func(scale float64) *phase.Analysis {
		d, _ := machine.NewDeployment(machine.ClusterA(), 8, machine.MapBlock)
		res, err := mpi.Run(mk(scale), mpi.RunConfig{Deployment: d, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		l, err := logical.Order(res.Recording.Trace())
		if err != nil {
			t.Fatal(err)
		}
		a, err := phase.Extract(l, phase.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	m, err := Fit([]Point{
		{Param: 1, Analysis: analyze(1)},
		{Param: 2, Analysis: analyze(2)},
		{Param: 3, Analysis: analyze(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth at scale 5.
	d, _ := machine.NewDeployment(machine.ClusterA(), 8, machine.MapBlock)
	res, err := mpi.Run(mk(5), mpi.RunConfig{Deployment: d})
	if err != nil {
		t.Fatal(err)
	}
	got := m.Predict(5).Seconds()
	want := res.Elapsed.Seconds()
	if e := math.Abs(got-want) / want; e > 0.15 {
		t.Errorf("extrapolated %.3fs vs actual %.3fs (%.1f%% error)", got, want, 100*e)
	}
}

// TestCGClassExtrapolation fits CG at classes A and B (cheap) and
// extrapolates class C — the workload-effect use case: predict a big
// run from two small analyses.
func TestCGClassExtrapolation(t *testing.T) {
	// Parameter axis: the matrix nonzero count per class.
	nnz := map[string]float64{"classA": 1.85e6, "classB": 1.31e7, "classC": 3.67e7}
	aA, _ := analyzeAt(t, "cg", 8, "classA")
	aB, _ := analyzeAt(t, "cg", 8, "classB")
	_, aetC := analyzeAt(t, "cg", 8, "classC")

	m, err := Fit([]Point{
		{Param: nnz["classA"], Analysis: aA},
		{Param: nnz["classB"], Analysis: aB},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := m.Predict(nnz["classC"]).Seconds()
	want := aetC.Seconds()
	if e := math.Abs(got-want) / want; e > 0.40 {
		t.Errorf("classC extrapolation %.1fs vs actual %.1fs (%.1f%% error)", got, want, 100*e)
	}
}

func TestPhaseModelAccessors(t *testing.T) {
	pm := PhaseModel{ETCoef: 2, ETExp: 1, WCoef: 3, WExp: 0}
	if got := pm.ET(4).Seconds(); math.Abs(got-8) > 1e-9 {
		t.Errorf("ET(4) = %v, want 8", got)
	}
	if got := pm.Weight(100); got != 3 {
		t.Errorf("Weight(100) = %v, want 3", got)
	}
}

func TestFingerprintStability(t *testing.T) {
	// The same app analysed at two workloads must produce matching
	// fingerprints for its dominant phase.
	aA, _ := analyzeAt(t, "cg", 8, "classA")
	aB, _ := analyzeAt(t, "cg", 8, "classB")
	fpsA := map[uint64]bool{}
	for _, p := range aA.Phases {
		fpsA[fingerprint(p)] = true
	}
	domB := aB.SortedByTotalDur()[0]
	if !fpsA[fingerprint(domB)] {
		t.Error("dominant classB phase has no fingerprint match in classA")
	}
}

func TestUnmatchedPhaseKeptConstant(t *testing.T) {
	aA, _ := analyzeAt(t, "cg", 8, "classA")
	aB, _ := analyzeAt(t, "moldy", 8, "tip4p-short") // disjoint structure
	m, err := Fit([]Point{
		{Param: 1, Analysis: aA},
		{Param: 2, Analysis: aB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Unmatched == 0 {
		t.Error("disjoint apps should produce unmatched phases")
	}
	for _, p := range m.Phases {
		if p.Points == 1 && (p.ETExp != 0 || p.WExp != 0) {
			t.Error("single-point phases must be constant")
		}
	}
}
