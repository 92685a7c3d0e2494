package predict

import (
	"strings"
	"testing"

	"pas2p/internal/apps"
	"pas2p/internal/checkpoint"
	"pas2p/internal/faults"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/obs"
	"pas2p/internal/signature"
	"pas2p/internal/vtime"
)

func lightSig() signature.Options {
	o := signature.DefaultOptions()
	o.Checkpoint = checkpoint.CostModel{
		SnapshotBase: 500 * vtime.Microsecond,
		RestartBase:  800 * vtime.Microsecond,
		SnapshotRate: 400e6, RestoreRate: 600e6,
	}
	o.StateBytesPerRank = 4 << 20
	return o
}

func dep(t testing.TB, cl *machine.Cluster, n int) *machine.Deployment {
	t.Helper()
	d, err := machine.NewDeployment(cl, n, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mkApp(t testing.TB, name string, procs int, workload string) mpi.App {
	t.Helper()
	app, err := apps.Make(name, procs, workload)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestFullExperimentCG(t *testing.T) {
	app := mkApp(t, "cg", 8, "classA")
	out, err := Run(Experiment{
		App:           app,
		Base:          dep(t, machine.ClusterA(), 8),
		Target:        dep(t, machine.ClusterB(), 8),
		EventOverhead: 5 * vtime.Microsecond,
		Signature:     lightSig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.AETBase <= 0 || out.AETTarget <= 0 {
		t.Fatal("AETs must be positive")
	}
	if out.AETPAS2P <= out.AETBase {
		t.Error("instrumented run must be slower than plain run")
	}
	if out.TFSize <= 0 || out.TFAT <= 0 {
		t.Error("tracefile metrics missing")
	}
	if out.Total < out.Relevant || out.Relevant < 1 {
		t.Errorf("phases: total %d relevant %d", out.Total, out.Relevant)
	}
	if out.SCT <= 0 {
		t.Error("SCT missing")
	}
	if out.PETEPercent > 15 {
		t.Errorf("PETE %.2f%% too high (PET %v vs AET %v)", out.PETEPercent, out.PET, out.AETTarget)
	}
	if out.SETvsAETPercent >= 100 {
		t.Errorf("SET/AET %.1f%%: signature not shorter than the app", out.SETvsAETPercent)
	}
	if out.OverheadFactor < 1 {
		t.Errorf("overhead factor %.2f must exceed 1", out.OverheadFactor)
	}
}

func TestExperimentValidation(t *testing.T) {
	app := mkApp(t, "cg", 8, "classA")
	if _, err := Run(Experiment{App: app}); err == nil {
		t.Error("missing deployments should fail")
	}
	if _, err := Run(Experiment{Base: dep(t, machine.ClusterA(), 8), Target: dep(t, machine.ClusterB(), 8)}); err == nil {
		t.Error("missing app should fail")
	}
}

func TestSkipTargetAET(t *testing.T) {
	app := mkApp(t, "cg", 8, "classA")
	out, err := Run(Experiment{
		App:           app,
		Base:          dep(t, machine.ClusterA(), 8),
		Target:        dep(t, machine.ClusterA(), 8),
		Signature:     lightSig(),
		SkipTargetAET: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.AETTarget != 0 || out.PETEPercent != 0 {
		t.Error("skipped target AET should leave ground-truth fields zero")
	}
	if out.PET <= 0 {
		t.Error("PET must still be produced")
	}
}

func TestPartialExecBaseline(t *testing.T) {
	app := mkApp(t, "cg", 8, "classA")
	base := dep(t, machine.ClusterA(), 8)
	target := dep(t, machine.ClusterB(), 8)

	full, err := mpi.Run(app, mpi.RunConfig{Deployment: target})
	if err != nil {
		t.Fatal(err)
	}

	// Event totals from a base-machine trace.
	res, err := DefaultPartialExec().Predict(app, target, partialTotals(t, app, base))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost >= full.Elapsed {
		t.Errorf("partial execution cost %v should undercut the full run %v", res.Cost, full.Elapsed)
	}
	// CG is uniform, so linear extrapolation should land near truth.
	pete := PETE(res.PET, full.Elapsed)
	if pete > 25 {
		t.Errorf("partial-exec PETE %.2f%% unreasonably bad for a uniform app", pete)
	}
}

func TestPartialExecValidation(t *testing.T) {
	app := mkApp(t, "cg", 8, "classA")
	target := dep(t, machine.ClusterA(), 8)
	if _, err := (PartialExec{InitFraction: -1, ObserveFraction: 0.1}).Predict(app, target, make([]int64, 8)); err == nil {
		t.Error("negative init fraction should fail")
	}
	if _, err := (PartialExec{InitFraction: 0.5, ObserveFraction: 0.6}).Predict(app, target, make([]int64, 8)); err == nil {
		t.Error("fractions over 1 should fail")
	}
	if _, err := DefaultPartialExec().Predict(app, target, make([]int64, 3)); err == nil {
		t.Error("wrong totals length should fail")
	}
}

// TestPAS2PBeatsPartialOnShiftingApps demonstrates the paper's claim
// that analysing the whole execution beats extrapolating from an early
// window when behaviour changes over time.
func TestPAS2PBeatsPartialOnShiftingApps(t *testing.T) {
	// An app whose later iterations are 3x heavier than its early
	// ones: early-window extrapolation must undershoot badly.
	app := mpi.App{
		Name:  "shifting",
		Procs: 8,
		Body: func(c *mpi.Comm) {
			n := c.Size()
			for i := 0; i < 60; i++ {
				weight := 1.0
				if i >= 20 {
					weight = 3.0
				}
				c.Compute(3e6 * weight)
				c.SendrecvN((c.Rank()+1)%n, 0, 2048, (c.Rank()+n-1)%n, 0)
				c.Allreduce([]float64{1}, mpi.Sum)
			}
		},
	}
	base := dep(t, machine.ClusterA(), 8)
	target := dep(t, machine.ClusterB(), 8)
	full, err := mpi.Run(app, mpi.RunConfig{Deployment: target})
	if err != nil {
		t.Fatal(err)
	}

	out, err := Run(Experiment{App: app, Base: base, Target: target, Signature: lightSig()})
	if err != nil {
		t.Fatal(err)
	}

	pres, err := DefaultPartialExec().Predict(app, target, partialTotals(t, app, base))
	if err != nil {
		t.Fatal(err)
	}
	partialPETE := PETE(pres.PET, full.Elapsed)
	if out.PETEPercent >= partialPETE {
		t.Errorf("PAS2P PETE %.2f%% should beat partial-exec PETE %.2f%% on shifting behaviour",
			out.PETEPercent, partialPETE)
	}
	if partialPETE < 20 {
		t.Errorf("partial exec PETE %.2f%%: the shifting app should fool it", partialPETE)
	}
}

func TestSpeedRatioValidation(t *testing.T) {
	if _, err := (SpeedRatio{}).Predict(1, nil, nil); err == nil {
		t.Error("nil deployments should fail")
	}
	a := dep(t, machine.ClusterA(), 8)
	b := dep(t, machine.ClusterB(), 4)
	if _, err := (SpeedRatio{}).Predict(1, a, b); err == nil {
		t.Error("rank mismatch should fail")
	}
}

// TestSpeedRatioBlindToNetwork shows the baseline's failure mode: a
// communication-heavy app moving from GigE to InfiniBand speeds up far
// more than the compute-rate ratio predicts, while PAS2P's measured
// phases capture it.
func TestSpeedRatioBlindToNetwork(t *testing.T) {
	commHeavy := mpi.App{
		Name:  "commheavy",
		Procs: 16,
		Body: func(c *mpi.Comm) {
			n := c.Size()
			for i := 0; i < 40; i++ {
				c.Compute(2e5)
				peer := (c.Rank() + n/2) % n
				c.SendrecvN(peer, 0, 48<<10, peer, 0)
				c.Allreduce([]float64{1}, mpi.Sum)
			}
		},
	}
	base := dep(t, machine.ClusterA(), 16)
	target := dep(t, machine.ClusterC(), 16)

	full, err := mpi.Run(commHeavy, mpi.RunConfig{Deployment: base})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := mpi.Run(commHeavy, mpi.RunConfig{Deployment: target})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := (SpeedRatio{}).Predict(full.Elapsed, base, target)
	if err != nil {
		t.Fatal(err)
	}
	naivePETE := PETE(naive, truth.Elapsed)

	out, err := Run(Experiment{App: commHeavy, Base: base, Target: target, Signature: lightSig()})
	if err != nil {
		t.Fatal(err)
	}
	if out.PETEPercent >= naivePETE {
		t.Errorf("PAS2P PETE %.2f%% should beat speed-ratio PETE %.2f%% on a comm-heavy app",
			out.PETEPercent, naivePETE)
	}
	if naivePETE < 25 {
		t.Errorf("speed ratio PETE %.2f%%: the network shift should fool it", naivePETE)
	}
}

// TestOutcomeDiff: a rerun that matches is clean, and each field a
// seeded rerun must reproduce is reported on its own.
func TestOutcomeDiff(t *testing.T) {
	base := Outcome{PET: 10, SET: 2, Total: 5, Relevant: 3, LostPhases: []int{4},
		Degraded: true, Faults: faults.Report{Seed: 7, Injected: 3}}
	same := base
	same.LostPhases = []int{4}
	if d := base.Diff(&same); len(d) != 0 {
		t.Fatalf("identical outcomes differ: %v", d)
	}
	for name, mutate := range map[string]func(*Outcome){
		"PET":         func(o *Outcome) { o.PET++ },
		"SET":         func(o *Outcome) { o.SET++ },
		"phases":      func(o *Outcome) { o.Relevant-- },
		"degradation": func(o *Outcome) { o.LostPhases = []int{5} },
		"faults":      func(o *Outcome) { o.Faults.Recovered++ },
	} {
		rerun := base
		mutate(&rerun)
		if d := base.Diff(&rerun); len(d) != 1 || !strings.HasPrefix(d[0], name) {
			t.Errorf("%s changed: diff %v", name, d)
		}
	}
}

// TestSameMachineTargetSkipsTargetRun counts the simulator runs a
// prediction makes: the base run, the traced run, the construction run
// and the signature's execution, plus the target's ground-truth run
// only when the target differs from the base. On the base machine the
// base run already is the target's run.
func TestSameMachineTargetSkipsTargetRun(t *testing.T) {
	cases := []struct {
		base, target string
		// samePointer passes the base deployment itself as the target.
		samePointer bool
		want        int64
		targetSpan  bool
	}{
		{"A", "B", false, 5, true},
		{"C", "C", false, 4, false},
		{"C", "C", true, 4, false},
	}
	for _, c := range cases {
		base, err := machine.Deploy(c.base, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		target, err := machine.Deploy(c.target, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if c.samePointer {
			target = base
		}
		o := obs.New()
		if _, err := Run(Experiment{App: mkApp(t, "cg", 8, "classA"), Base: base, Target: target,
			Signature: lightSig(), Observer: o}); err != nil {
			t.Fatal(err)
		}
		snap := o.Reg().Snapshot()
		if got := snap.Counters["sim.runs"]; got != c.want {
			t.Errorf("%s->%s: sim.runs = %d, want %d", c.base, c.target, got, c.want)
		}
		_, recorded := snap.SpanStats["predict.target_run"]
		if recorded != c.targetSpan {
			t.Errorf("%s->%s: predict.target_run recorded = %v, want %v", c.base, c.target, recorded, c.targetSpan)
		}
	}
}
