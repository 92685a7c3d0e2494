package apps

import (
	"testing"

	"pas2p/internal/logical"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/phase"
)

// smallWorkload maps each app to a cheap workload for unit tests.
var smallWorkload = map[string]string{
	"cg":           "classA",
	"ep":           "classA",
	"is":           "classA",
	"bt":           "classA",
	"sp":           "classA",
	"lu":           "classA",
	"ft":           "classA",
	"sweep3d":      "sweep.150 3",
	"smg2000":      "-n 120 solver 3 iterations 90",
	"pop":          "synthetic20",
	"moldy":        "tip4p-short",
	"gromacs":      "d.lzm",
	"masterworker": "rounds2",
}

func runTraced(t testing.TB, name string, procs int, workload string) (*mpi.RunResult, mpi.App) {
	t.Helper()
	run, app := startTraced(t, name, procs, workload)
	res, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res, app
}

// startTraced starts a traced run of the app on cluster A, whose
// recording a reader may drain while the ranks record it.
func startTraced(t testing.TB, name string, procs int, workload string) (*mpi.Running, mpi.App) {
	t.Helper()
	app, err := Make(name, procs, workload)
	if err != nil {
		t.Fatal(err)
	}
	d, err := machine.NewDeployment(machine.ClusterA(), procs, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	run, err := mpi.Start(app, mpi.RunConfig{Deployment: d, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return run, app
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"bt", "cg", "ep", "ft", "gromacs", "is", "lu",
		"masterworker", "moldy", "pop", "smg2000", "sp", "sweep3d"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry has %v, want %v", got, want)
		}
	}
	for _, n := range want {
		s := Lookup(n)
		if s == nil {
			t.Fatalf("Lookup(%q) = nil", n)
		}
		if s.DefaultWorkload == "" || s.StateBytesPerRank <= 0 {
			t.Errorf("%s: incomplete spec", n)
		}
	}
	if Lookup("nope") != nil {
		t.Error("Lookup of unknown app should be nil")
	}
}

func TestMakeUnknown(t *testing.T) {
	if _, err := Make("nope", 4, ""); err == nil {
		t.Error("unknown app should fail")
	}
	if _, err := Make("cg", 8, "classZ"); err == nil {
		t.Error("unknown workload should fail")
	}
	if _, err := Make("cg", 1, "classA"); err == nil {
		t.Error("too few procs should fail")
	}
}

// TestEveryAppRunsAndTraces is the suite-wide smoke test: every
// registered application runs deterministically on 8 ranks, produces a
// valid trace, and survives the full analysis pipeline.
func TestEveryAppRunsAndTraces(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			res, _ := runTraced(t, name, 8, smallWorkload[name])
			if res.Elapsed <= 0 {
				t.Fatal("zero elapsed time")
			}
			tr := res.Recording.Trace()
			if err := tr.Validate(); err != nil {
				t.Fatalf("trace invalid: %v", err)
			}
			l, err := logical.Order(tr)
			if err != nil {
				t.Fatalf("ordering failed: %v", err)
			}
			if err := l.Validate(); err != nil {
				t.Fatalf("logical trace invalid: %v", err)
			}
			a, err := phase.Extract(l, phase.DefaultConfig())
			if err != nil {
				t.Fatalf("extraction failed: %v", err)
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("analysis invalid: %v", err)
			}
			if len(a.Relevant()) == 0 {
				t.Error("no relevant phases found")
			}
			tb, err := a.BuildTable(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.Validate(); err != nil {
				t.Fatalf("phase table invalid: %v", err)
			}
		})
	}
}

func TestAppsDeterministic(t *testing.T) {
	for _, name := range []string{"cg", "lu", "masterworker"} {
		r1, _ := runTraced(t, name, 8, smallWorkload[name])
		r2, _ := runTraced(t, name, 8, smallWorkload[name])
		if r1.Elapsed != r2.Elapsed {
			t.Errorf("%s: elapsed differs across runs: %v vs %v", name, r1.Elapsed, r2.Elapsed)
		}
		if r1.Recording.Meta().Events != r2.Recording.Meta().Events {
			t.Errorf("%s: event counts differ", name)
		}
	}
}

func TestMoldyWeightRatios(t *testing.T) {
	// Table 3's shape: the relevant phases' weights stand roughly in
	// 20 : 10 : 9 : 1 (per-step reductions fire twice, the thermostat
	// 9 of 10 steps, the rebuild once per 10 steps).
	res, _ := runTraced(t, "moldy", 8, "tip4p-short")
	l, err := logical.Order(res.Recording.Trace())
	if err != nil {
		t.Fatal(err)
	}
	a, err := phase.Extract(l, phase.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Phases) < 3 {
		t.Fatalf("moldy found only %d phases; expected a Table-3-like mix", len(a.Phases))
	}
	// The largest weight must be several times the smallest relevant
	// weight — the spread that makes Table 3 interesting.
	rel := a.Relevant()
	if len(rel) < 2 {
		t.Fatalf("moldy has %d relevant phases, want >= 2", len(rel))
	}
	minW, maxW := rel[0].Weight(), rel[0].Weight()
	for _, p := range rel {
		if p.Weight() < minW {
			minW = p.Weight()
		}
		if p.Weight() > maxW {
			maxW = p.Weight()
		}
	}
	if maxW < 4*minW {
		t.Errorf("moldy weight spread %d..%d too flat for the Table 3 shape", minW, maxW)
	}
}

func TestFTLowRepetitiveness(t *testing.T) {
	// §6: FT's largest weight is small (~20), reflecting little
	// repetitiveness.
	res, _ := runTraced(t, "ft", 8, "classA")
	l, _ := logical.Order(res.Recording.Trace())
	a, err := phase.Extract(l, phase.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	maxW := 0
	for _, p := range a.Phases {
		if p.Weight() > maxW {
			maxW = p.Weight()
		}
	}
	if maxW > 30 {
		t.Errorf("ft max weight %d; expected low repetitiveness", maxW)
	}
}

func TestMasterWorkerDegenerate(t *testing.T) {
	// §6: one job round gives a dominant phase of weight 1.
	res, _ := runTraced(t, "masterworker", 8, "rounds1")
	l, _ := logical.Order(res.Recording.Trace())
	a, err := phase.Extract(l, phase.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dominant := a.SortedByTotalDur()[0]
	if dominant.Weight() != 1 {
		t.Errorf("dominant phase weight %d, want 1", dominant.Weight())
	}
}

func TestLUHasMostEvents(t *testing.T) {
	// Table 8's shape: LU's per-k-plane pipeline yields far more
	// events (and so the biggest tracefile) than FT's few transposes.
	lu, _ := runTraced(t, "lu", 8, "classA")
	ft, _ := runTraced(t, "ft", 8, "classA")
	if luN, ftN := lu.Recording.Meta().Events, ft.Recording.Meta().Events; luN < 5*ftN {
		t.Errorf("lu events %d vs ft %d: LU should dwarf FT", luN, ftN)
	}
}

func TestClassScalingIncreasesWork(t *testing.T) {
	// A bigger NPB class must run longer on the same deployment.
	small, _ := runTraced(t, "cg", 8, "classA")
	big, _ := runTraced(t, "cg", 8, "classB")
	if big.Elapsed <= small.Elapsed {
		t.Errorf("classB %v should exceed classA %v", big.Elapsed, small.Elapsed)
	}
}

func TestCrossClusterAETOrdering(t *testing.T) {
	// The same CG workload must run faster on the IB cluster C than on
	// the GigE cluster A at the same rank count (its allreduce- and
	// exchange-heavy pattern is network sensitive).
	app, err := Make("cg", 16, "classA")
	if err != nil {
		t.Fatal(err)
	}
	times := map[string]float64{}
	for _, cl := range []*machine.Cluster{machine.ClusterA(), machine.ClusterC()} {
		d, err := machine.NewDeployment(cl, 16, machine.MapBlock)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mpi.Run(app, mpi.RunConfig{Deployment: d})
		if err != nil {
			t.Fatal(err)
		}
		times[cl.Name] = res.Elapsed.Seconds()
	}
	if times["Cluster C"] >= times["Cluster A"] {
		t.Errorf("CG on C (%.3fs) should beat A (%.3fs)", times["Cluster C"], times["Cluster A"])
	}
}

func TestWorkloadParsers(t *testing.T) {
	if _, err := parseSweepWorkload("sweep.250 13"); err != nil {
		t.Error(err)
	}
	if _, err := parseSweepWorkload("sweep.999"); err == nil {
		t.Error("unknown sweep grid should fail")
	}
	if _, err := parseSweepWorkload("sweep.150 zero"); err == nil {
		t.Error("bad iteration count should fail")
	}
	w, err := parseSMGWorkload("-n 200 solver 3 iterations 550")
	if err != nil {
		t.Fatal(err)
	}
	if w.n != 200 || w.cycles != 550/18 {
		t.Errorf("smg workload parsed %+v", w)
	}
	if _, err := parseSMGWorkload("-n x solver 3"); err == nil {
		t.Error("bad -n should fail")
	}
	if _, err := parseSMGWorkload("bogus"); err == nil {
		t.Error("unknown token should fail")
	}
	if _, err := parsePOPWorkload("synthetic150"); err != nil {
		t.Error(err)
	}
	if _, err := parsePOPWorkload("classC"); err == nil {
		t.Error("pop with NPB class should fail")
	}
	if _, err := parseMWWorkload("rounds10"); err != nil {
		t.Error(err)
	}
	if _, err := parseMWWorkload("roundsX"); err == nil {
		t.Error("bad rounds should fail")
	}
}

func TestGrid2D(t *testing.T) {
	cases := map[int][2]int{
		4: {2, 2}, 8: {2, 4}, 16: {4, 4}, 64: {8, 8},
		12: {3, 4}, 7: {1, 7}, 1: {1, 1},
	}
	for p, want := range cases {
		r, c := grid2D(p)
		if r != want[0] || c != want[1] {
			t.Errorf("grid2D(%d) = %dx%d, want %dx%d", p, r, c, want[0], want[1])
		}
		if r*c != p {
			t.Errorf("grid2D(%d) does not factor", p)
		}
	}
	if !isSquare(16) || isSquare(8) {
		t.Error("isSquare wrong")
	}
}

func TestEPFewEvents(t *testing.T) {
	// EP is nearly communication-free: its trace must be tiny relative
	// to CG's at the same class/procs.
	ep, _ := runTraced(t, "ep", 8, "classA")
	cg, _ := runTraced(t, "cg", 8, "classA")
	if epN, cgN := ep.Recording.Meta().Events, cg.Recording.Meta().Events; epN*5 > cgN {
		t.Errorf("ep events %d vs cg %d: EP should be nearly silent", epN, cgN)
	}
}

func TestISAlltoallDominated(t *testing.T) {
	res, _ := runTraced(t, "is", 8, "classA")
	st := res.Recording.Trace().Stats()
	if st.Collectives < st.Sends {
		t.Errorf("is should be collective-dominated: %d colls vs %d sends", st.Collectives, st.Sends)
	}
}
