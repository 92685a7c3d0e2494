// Tests of the public pas2p API: the facade exposed to downstream
// users, exercised the way README's examples use it.
package pas2p_test

import (
	"errors"
	"testing"

	"pas2p"
	"pas2p/internal/vtime"
)

func TestPublicClusters(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "D"} {
		if pas2p.ClusterByName(name) == nil {
			t.Errorf("ClusterByName(%q) = nil", name)
		}
	}
	if pas2p.ClusterByName("nope") != nil {
		t.Error("unknown cluster should be nil")
	}
	if pas2p.ClusterA().Cores() != 128 {
		t.Error("cluster A should expose 128 cores")
	}
}

func TestPublicAppRegistry(t *testing.T) {
	names := pas2p.AppNames()
	if len(names) < 10 {
		t.Fatalf("expected the paper's app suite, got %v", names)
	}
	spec := pas2p.AppSpec("cg")
	if spec == nil || spec.DefaultWorkload == "" {
		t.Fatal("cg spec incomplete")
	}
	if _, err := pas2p.MakeApp("cg", 8, ""); err != nil {
		t.Fatalf("default workload should instantiate: %v", err)
	}
}

// TestPublicPipeline walks the full user-facing flow end to end.
func TestPublicPipeline(t *testing.T) {
	app := pas2p.App{
		Name:  "user-app",
		Procs: 8,
		Body: func(c *pas2p.Comm) {
			n := c.Size()
			for i := 0; i < 30; i++ {
				c.Compute(1e6)
				c.Sendrecv((c.Rank()+1)%n, 0, []float64{float64(i)}, (c.Rank()+n-1)%n, 0)
				c.Allreduce([]float64{1}, pas2p.Sum)
			}
		},
	}
	base, err := pas2p.NewDeployment(pas2p.ClusterA(), 8, pas2p.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	target, err := pas2p.NewDeployment(pas2p.ClusterC(), 8, pas2p.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: base, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	an, tb, err := pas2p.Analyze(traced.Trace, pas2p.DefaultPhaseConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Relevant()) < 1 {
		t.Fatal("no relevant phases")
	}
	sig, sct, err := pas2p.BuildSignature(app, tb, base, pas2p.DefaultSignatureOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sct <= 0 {
		t.Error("SCT must be positive")
	}
	res, err := sig.Execute(target)
	if err != nil {
		t.Fatal(err)
	}
	full, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: target})
	if err != nil {
		t.Fatal(err)
	}
	aet := pas2p.Seconds(full.Elapsed)
	pet := pas2p.Seconds(res.PET)
	if aet <= 0 || pet <= 0 {
		t.Fatal("degenerate timings")
	}
	if diff := 100 * abs2(pet-aet) / aet; diff > 10 {
		t.Errorf("public-pipeline PETE %.2f%%", diff)
	}
}

func TestPublicPredict(t *testing.T) {
	app, err := pas2p.MakeApp("cg", 8, "classA")
	if err != nil {
		t.Fatal(err)
	}
	base, _ := pas2p.NewDeployment(pas2p.ClusterA(), 8, pas2p.MapBlock)
	target, _ := pas2p.NewDeployment(pas2p.ClusterB(), 8, pas2p.MapBlock)
	out, err := pas2p.Predict(pas2p.Experiment{App: app, Base: base, Target: target})
	if err != nil {
		t.Fatal(err)
	}
	if out.PETEPercent > 10 {
		t.Errorf("PETE %.2f%%", out.PETEPercent)
	}
}

func TestPublicISAMismatch(t *testing.T) {
	app, err := pas2p.MakeApp("cg", 8, "classA")
	if err != nil {
		t.Fatal(err)
	}
	base, _ := pas2p.NewDeployment(pas2p.ClusterA(), 8, pas2p.MapBlock)
	traced, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: base, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	_, tb, err := pas2p.Analyze(traced.Trace, pas2p.DefaultPhaseConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sig, _, err := pas2p.BuildSignature(app, tb, base, pas2p.DefaultSignatureOptions())
	if err != nil {
		t.Fatal(err)
	}
	targetD, _ := pas2p.NewDeployment(pas2p.ClusterD(), 8, pas2p.MapBlock)
	_, err = sig.Execute(targetD)
	var mismatch *pas2p.ErrISAMismatch
	if !errors.As(err, &mismatch) {
		t.Fatalf("want ErrISAMismatch, got %v", err)
	}
}

func TestPublicOrderings(t *testing.T) {
	app, _ := pas2p.MakeApp("cg", 8, "classA")
	base, _ := pas2p.NewDeployment(pas2p.ClusterA(), 8, pas2p.MapBlock)
	traced, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: base, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := pas2p.OrderLogical(traced.Trace)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := pas2p.OrderLamport(traced.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if lp.NumTicks() < 1 || ll.NumTicks() < 1 {
		t.Error("orderings produced empty tick tables")
	}
	if _, err := pas2p.ExtractPhases(lp, pas2p.DefaultPhaseConfig()); err != nil {
		t.Fatal(err)
	}
}

func abs2(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestTopologyEndToEnd(t *testing.T) {
	// A tapered fat-tree interconnect slows a cross-node-heavy app and
	// the signature still predicts it (the topology is just another
	// machine-model parameter).
	app, err := pas2p.MakeApp("cg", 16, "classA")
	if err != nil {
		t.Fatal(err)
	}
	flat := pas2p.ClusterC()
	tree := pas2p.ClusterC()
	tree.Topology = pas2p.Topology{
		Kind: pas2p.TopoFatTree, Radix: 4,
		HopLatency: 40 * vtime.Microsecond, HopBandwidthTaper: 0.5,
	}
	base, _ := pas2p.NewDeployment(pas2p.ClusterA(), 16, pas2p.MapBlock)
	dFlat, _ := pas2p.NewDeployment(flat, 16, pas2p.MapCyclic)
	dTree, err := pas2p.NewDeployment(tree, 16, pas2p.MapCyclic)
	if err != nil {
		t.Fatal(err)
	}
	rFlat, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: dFlat})
	if err != nil {
		t.Fatal(err)
	}
	rTree, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: dTree})
	if err != nil {
		t.Fatal(err)
	}
	if rTree.Elapsed <= rFlat.Elapsed {
		t.Errorf("fat-tree run %v should be slower than flat %v", rTree.Elapsed, rFlat.Elapsed)
	}
	out, err := pas2p.Predict(pas2p.Experiment{App: app, Base: base, Target: dTree})
	if err != nil {
		t.Fatal(err)
	}
	if out.PETEPercent > 10 {
		t.Errorf("PETE %.2f%% on the fat-tree target", out.PETEPercent)
	}
}
