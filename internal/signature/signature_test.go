package signature

import (
	"errors"
	"math"
	"strings"
	"testing"

	"pas2p/internal/logical"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/phase"
	"pas2p/internal/vtime"
)

// iterApp is a canonical iterative kernel: init segment, then many
// identical iterations of exchange + reduction.
func iterApp(procs, iters int) mpi.App {
	return mpi.App{
		Name:  "iter",
		Procs: procs,
		Body: func(c *mpi.Comm) {
			n := c.Size()
			if c.Rank() == 0 {
				for s := 1; s < n; s++ {
					c.SendN(s, 99, 1<<14)
				}
			} else {
				c.RecvN(0, 99)
			}
			c.Barrier()
			for i := 0; i < iters; i++ {
				c.Compute(5e5)
				right := (c.Rank() + 1) % n
				left := (c.Rank() + n - 1) % n
				c.SendrecvN(right, 0, 4096, left, 0)
				c.Allreduce([]float64{float64(i)}, mpi.Sum)
			}
		},
	}
}

// lightOptions scales checkpoint costs down to match the miniature
// test workloads (the defaults model real DMTCP costs, which would
// dwarf a 30 ms test app; the ratio restart/AET here mirrors the
// paper's seconds-vs-hundreds-of-seconds proportions).
func lightOptions() Options {
	o := DefaultOptions()
	o.Checkpoint.SnapshotBase = 200 * vtime.Microsecond
	o.Checkpoint.RestartBase = 300 * vtime.Microsecond
	o.StateBytesPerRank = 1 << 20
	return o
}

func deployOn(t testing.TB, cl *machine.Cluster, ranks int) *machine.Deployment {
	t.Helper()
	d, err := machine.NewDeployment(cl, ranks, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// analyze produces the phase table of an app on a base machine.
func analyze(t testing.TB, app mpi.App, base *machine.Deployment) (*phase.Table, vtime.Duration) {
	t.Helper()
	res, err := mpi.Run(app, mpi.RunConfig{Deployment: base, Trace: true})
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
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	tb, err := a.BuildTable(1)
	if err != nil {
		t.Fatal(err)
	}
	return tb, res.Elapsed
}

// aetOn measures the uninstrumented application execution time.
func aetOn(t testing.TB, app mpi.App, d *machine.Deployment) vtime.Duration {
	t.Helper()
	res, err := mpi.Run(app, mpi.RunConfig{Deployment: d})
	if err != nil {
		t.Fatal(err)
	}
	return res.Elapsed
}

func TestBuildAndExecuteSameMachine(t *testing.T) {
	app := iterApp(8, 40)
	base := deployOn(t, machine.ClusterA(), 8)
	tb, _ := analyze(t, app, base)

	br, err := Build(app, tb, base, lightOptions())
	if err != nil {
		t.Fatal(err)
	}
	if br.SCT <= 0 {
		t.Error("SCT must be positive")
	}
	if br.Checkpoints < 1 {
		t.Error("expected at least one checkpoint")
	}

	aet := aetOn(t, app, base)
	res, err := br.Signature.Execute(base)
	if err != nil {
		t.Fatal(err)
	}
	// The headline properties: SET is a small fraction of AET, and PET
	// is close to AET (the paper reports ~1.74% and >97%).
	setFrac := float64(res.SET) / float64(aet)
	if setFrac > 0.35 {
		t.Errorf("SET %v is %.1f%% of AET %v; signature is not short", res.SET, setFrac*100, aet)
	}
	pete := 100 * abs(float64(res.PET)-float64(aet)) / float64(aet)
	if pete > 12 {
		t.Errorf("PETE = %.2f%%: PET %v vs AET %v", pete, res.PET, aet)
	}
	if len(res.Phases) == 0 {
		t.Fatal("no phases measured")
	}
	for _, m := range res.Phases {
		if m.ET < 0 || m.Weight < 1 {
			t.Errorf("phase %d measurement %+v invalid", m.PhaseID, m)
		}
	}
}

func TestCrossMachinePrediction(t *testing.T) {
	// The paper's core experiment: analyse on a base machine, predict
	// a different target machine's AET by executing the signature
	// there.
	app := iterApp(16, 40)
	base := deployOn(t, machine.ClusterA(), 16)
	tb, _ := analyze(t, app, base)
	br, err := Build(app, tb, base, lightOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []*machine.Cluster{machine.ClusterB(), machine.ClusterC()} {
		td := deployOn(t, target, 16)
		aet := aetOn(t, app, td)
		res, err := br.Signature.Execute(td)
		if err != nil {
			t.Fatalf("%s: %v", target.Name, err)
		}
		pete := 100 * abs(float64(res.PET)-float64(aet)) / float64(aet)
		if pete > 15 {
			t.Errorf("%s: PETE = %.2f%% (PET %v, AET %v)", target.Name, pete, res.PET, aet)
		}
		if res.SET >= aet {
			t.Errorf("%s: SET %v not below AET %v", target.Name, res.SET, aet)
		}
	}
}

func TestISAMismatchRefused(t *testing.T) {
	app := iterApp(8, 10)
	base := deployOn(t, machine.ClusterA(), 8)
	tb, _ := analyze(t, app, base)
	br, err := Build(app, tb, base, lightOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Cluster D is ia64; the x86_64 signature must be refused.
	_, err = br.Signature.Execute(deployOn(t, machine.ClusterD(), 8))
	var mismatch *ErrISAMismatch
	if !errors.As(err, &mismatch) {
		t.Fatalf("expected ErrISAMismatch, got %v", err)
	}
	// §7's remedy: rebuild the signature from the phase table on the
	// target machine, then execute there.
	baseD := deployOn(t, machine.ClusterD(), 8)
	brD, err := Build(app, tb, baseD, lightOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := brD.Signature.Execute(baseD); err != nil {
		t.Fatalf("rebuilt signature failed: %v", err)
	}
}

func TestExecuteValidation(t *testing.T) {
	app := iterApp(8, 10)
	base := deployOn(t, machine.ClusterA(), 8)
	tb, _ := analyze(t, app, base)
	br, err := Build(app, tb, base, lightOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := br.Signature.Execute(nil); err == nil {
		t.Error("nil target should fail")
	}
	if _, err := br.Signature.Execute(deployOn(t, machine.ClusterA(), 4)); err == nil {
		t.Error("rank mismatch should fail")
	}
	// Options changed after Build skip validation; the simulator must
	// still refuse a non-finite cold factor rather than run with a
	// silently different warm-up.
	for _, cold := range []float64{math.NaN(), math.Inf(1)} {
		sig := *br.Signature
		sig.Options.ColdFactor = cold
		if _, err := sig.Execute(base); err == nil || !strings.Contains(err.Error(), "non-finite compute scale") {
			t.Errorf("cold factor %v: err = %v, want a non-finite compute scale error", cold, err)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	app := iterApp(8, 10)
	base := deployOn(t, machine.ClusterA(), 8)
	tb, _ := analyze(t, app, base)

	for _, cold := range []float64{0.5, math.NaN(), math.Inf(1)} {
		bad := lightOptions()
		bad.ColdFactor = cold
		if _, err := Build(app, tb, base, bad); err == nil {
			t.Errorf("cold factor %v should fail", cold)
		}
	}
	bad := lightOptions()
	bad.WarmupEvents = -1
	if _, err := Build(app, tb, base, bad); err == nil {
		t.Error("negative warmup should fail")
	}
	if _, err := Build(app, tb, deployOn(t, machine.ClusterA(), 4), lightOptions()); err == nil {
		t.Error("deployment size mismatch should fail")
	}
	other := iterApp(4, 10)
	if _, err := Build(other, tb, deployOn(t, machine.ClusterA(), 4), lightOptions()); err == nil {
		t.Error("procs mismatch between app and table should fail")
	}
}

func TestSCTShorterThanFullRunWhenPhasesEarly(t *testing.T) {
	// Construction cuts the run after the last checkpoint; with the
	// designated occurrences early in the run, SCT (minus checkpoint
	// costs) should undercut the AET.
	app := iterApp(8, 120)
	base := deployOn(t, machine.ClusterA(), 8)
	tb, _ := analyze(t, app, base)
	br, err := Build(app, tb, base, lightOptions())
	if err != nil {
		t.Fatal(err)
	}
	aet := aetOn(t, app, base)
	if br.SCT >= aet {
		t.Errorf("SCT %v should undercut AET %v (early checkpoints cut the run)", br.SCT, aet)
	}
}

func TestAllPhasesReducesError(t *testing.T) {
	// §5: including non-relevant phases reduces the prediction error.
	app := iterApp(8, 40)
	base := deployOn(t, machine.ClusterA(), 8)
	tb, _ := analyze(t, app, base)
	aet := aetOn(t, app, base)

	optRel := lightOptions()
	optAll := lightOptions()
	optAll.AllPhases = true

	brRel, err := Build(app, tb, base, optRel)
	if err != nil {
		t.Fatal(err)
	}
	brAll, err := Build(app, tb, base, optAll)
	if err != nil {
		t.Fatal(err)
	}
	resRel, err := brRel.Signature.Execute(base)
	if err != nil {
		t.Fatal(err)
	}
	resAll, err := brAll.Signature.Execute(base)
	if err != nil {
		t.Fatal(err)
	}
	errRel := abs(float64(resRel.PET) - float64(aet))
	errAll := abs(float64(resAll.PET) - float64(aet))
	if errAll > errRel*1.05+float64(vtime.Millisecond) {
		t.Errorf("all-phase error %v should not exceed relevant-only error %v", errAll, errRel)
	}
	if len(resAll.Phases) < len(resRel.Phases) {
		t.Error("all-phase signature must measure at least as many phases")
	}
}

func TestDeterministicExecution(t *testing.T) {
	app := iterApp(8, 20)
	base := deployOn(t, machine.ClusterA(), 8)
	tb, _ := analyze(t, app, base)
	br, err := Build(app, tb, base, lightOptions())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := br.Signature.Execute(base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := br.Signature.Execute(base)
	if err != nil {
		t.Fatal(err)
	}
	if r1.SET != r2.SET || r1.PET != r2.PET {
		t.Errorf("signature execution not deterministic: %v/%v vs %v/%v", r1.SET, r1.PET, r2.SET, r2.PET)
	}
}

func TestMeasurementBreakdown(t *testing.T) {
	app := iterApp(8, 30)
	base := deployOn(t, machine.ClusterA(), 8)
	tb, _ := analyze(t, app, base)
	br, err := Build(app, tb, base, lightOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := br.Signature.Execute(base)
	if err != nil {
		t.Fatal(err)
	}
	var sum vtime.Duration
	for _, m := range res.Phases {
		if m.Restart <= 0 {
			t.Errorf("phase %d missing restart cost", m.PhaseID)
		}
		if m.Warmup < 0 {
			t.Errorf("phase %d negative warmup %v", m.PhaseID, m.Warmup)
		}
		sum += m.Contribution()
	}
	if sum != res.PET {
		t.Errorf("PET %v != sum of contributions %v", res.PET, sum)
	}
}

func TestOversubscribedTarget(t *testing.T) {
	// Table 7's scenario: signature built with 16 processes executes
	// on a machine with fewer cores (2 procs per core).
	app := iterApp(16, 30)
	base := deployOn(t, machine.ClusterC(), 16)
	tb, _ := analyze(t, app, base)
	br, err := Build(app, tb, base, lightOptions())
	if err != nil {
		t.Fatal(err)
	}
	tiny := machine.ClusterA()
	tiny.Nodes = 4 // 8 cores for 16 ranks
	td, err := machine.NewDeployment(tiny, 16, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	aet := aetOn(t, app, td)
	res, err := br.Signature.Execute(td)
	if err != nil {
		t.Fatal(err)
	}
	pete := 100 * abs(float64(res.PET)-float64(aet)) / float64(aet)
	if pete > 15 {
		t.Errorf("oversubscribed PETE = %.2f%% (PET %v, AET %v)", pete, res.PET, aet)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
