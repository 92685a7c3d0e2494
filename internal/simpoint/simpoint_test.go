package simpoint

import (
	"testing"

	"pas2p/internal/apps"
	"pas2p/internal/logical"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/signature"
)

func logicalOf(t testing.TB, name string, procs int, wl string) (*logical.Logical, mpi.App, *machine.Deployment) {
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
	return l, app, d
}

func TestExtractValid(t *testing.T) {
	l, _, _ := logicalOf(t, "cg", 8, "classA")
	an, err := Extract(l, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The clustering must tile the run like PAS2P phases do.
	if err := an.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(an.Phases) < 2 {
		t.Errorf("expected several clusters, got %d", len(an.Phases))
	}
	if len(an.Relevant()) == 0 {
		t.Error("no relevant clusters")
	}
}

func TestExtractValidation(t *testing.T) {
	l, _, _ := logicalOf(t, "cg", 8, "classA")
	bad := DefaultConfig()
	bad.K = 0
	if _, err := Extract(l, bad); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := Extract(nil, DefaultConfig()); err == nil {
		t.Error("nil logical should fail")
	}
}

func TestExtractDeterministic(t *testing.T) {
	l, _, _ := logicalOf(t, "moldy", 8, "tip4p-short")
	a1, err := Extract(l, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Extract(l, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Phases) != len(a2.Phases) {
		t.Fatal("nondeterministic clustering")
	}
	for i := range a1.Phases {
		if a1.Phases[i].Weight() != a2.Phases[i].Weight() {
			t.Fatal("cluster populations differ across runs")
		}
	}
}

func TestFewerClustersThanIntervals(t *testing.T) {
	l, _, _ := logicalOf(t, "cg", 8, "classA")
	cfg := DefaultConfig()
	cfg.K = 10000 // more clusters than intervals: must clamp
	an, err := Extract(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSimPointSignaturePredicts runs the full signature machinery on
// SimPoint clusters: the baseline predicts reasonably on a regular
// iterative code, validating the shared downstream pipeline.
func TestSimPointSignaturePredicts(t *testing.T) {
	l, app, base := logicalOf(t, "cg", 8, "classB")
	an, err := Extract(l, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := an.BuildTable(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := signature.DefaultOptions()
	opts.StateBytesPerRank = 4 << 20
	br, err := signature.Build(app, tb, base, opts)
	if err != nil {
		t.Fatal(err)
	}
	target, err := machine.NewDeployment(machine.ClusterB(), 8, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := br.Signature.Execute(target)
	if err != nil {
		t.Fatal(err)
	}
	full, err := mpi.Run(app, mpi.RunConfig{Deployment: target})
	if err != nil {
		t.Fatal(err)
	}
	aet := full.Elapsed.Seconds()
	pete := 100 * abs(res.PET.Seconds()-aet) / aet
	if pete > 25 {
		t.Errorf("SimPoint-based prediction PETE %.2f%% (PET %.1fs, AET %.1fs)",
			pete, res.PET.Seconds(), aet)
	}
}

func TestKMeansHandlesIdenticalVectors(t *testing.T) {
	vecs := make([][]float64, 8)
	for i := range vecs {
		vecs[i] = []float64{1, 0, 0}
	}
	labels := kmeans(vecs, 3, 10)
	for _, lb := range labels {
		if lb != labels[0] {
			t.Error("identical vectors should share a cluster")
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
