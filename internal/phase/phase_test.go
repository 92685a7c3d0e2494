package phase

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pas2p/internal/logical"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

// analyzeApp traces an app, orders it, and extracts phases.
func analyzeApp(t testing.TB, cluster *machine.Cluster, procs int, body func(c *mpi.Comm), cfg Config) *Analysis {
	t.Helper()
	d, err := machine.NewDeployment(cluster, procs, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpi.Run(mpi.App{Name: "t", Procs: procs, Body: body},
		mpi.RunConfig{Deployment: d, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	l, err := logical.Order(res.Recording.Trace())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Extract(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

// iterativeBody models a typical SPMD kernel: the same exchange +
// reduction every iteration, preceded by a distinct init segment.
func iterativeBody(iters int) func(c *mpi.Comm) {
	return func(c *mpi.Comm) {
		n := c.Size()
		// Init: a bcast and scatter-like sends with a unique tag.
		if c.Rank() == 0 {
			for s := 1; s < n; s++ {
				c.SendN(s, 99, 1<<12)
			}
		} else {
			c.RecvN(0, 99)
		}
		c.Barrier()
		for i := 0; i < iters; i++ {
			c.Compute(2e5)
			right := (c.Rank() + 1) % n
			left := (c.Rank() + n - 1) % n
			c.SendrecvN(right, 0, 2048, left, 0)
			c.Allreduce([]float64{1}, mpi.Sum)
		}
	}
}

func TestExtractIterativeApp(t *testing.T) {
	a := analyzeApp(t, machine.ClusterA(), 8, iterativeBody(30), DefaultConfig())
	// The iteration body must fold into one dominant phase with weight
	// close to the iteration count.
	byDur := a.SortedByTotalDur()
	top := byDur[0]
	if top.Weight() < 25 {
		t.Errorf("dominant phase weight = %d, want ~30", top.Weight())
	}
	if len(a.Phases) > 6 {
		t.Errorf("found %d phases; the iterations did not fold", len(a.Phases))
	}
	// Relevance: the dominant phase must be relevant.
	rel := a.Relevant()
	if len(rel) == 0 {
		t.Fatal("no relevant phases")
	}
	found := false
	for _, p := range rel {
		if p.ID == top.ID {
			found = true
		}
	}
	if !found {
		t.Error("dominant phase not marked relevant")
	}
}

func TestPhaseDurationsTileAET(t *testing.T) {
	a := analyzeApp(t, machine.ClusterB(), 8, iterativeBody(20), DefaultConfig())
	var total vtime.Duration
	for _, p := range a.Phases {
		total += p.TotalDur()
	}
	// The tiling property: phase durations must reconstruct the run.
	diff := float64(total-a.AET) / float64(a.AET)
	if diff > 0.001 || diff < -0.02 {
		t.Errorf("phase durations %v vs AET %v (%.2f%%)", total, a.AET, diff*100)
	}
}

func TestEquationOneReconstructsAET(t *testing.T) {
	// With ALL phases included, Eq. (1) over mean phase times must
	// reproduce the base AET closely (the paper's own observation that
	// taking every phase drives the error toward zero).
	a := analyzeApp(t, machine.ClusterA(), 4, iterativeBody(25), DefaultConfig())
	tb, err := a.BuildTable(1)
	if err != nil {
		t.Fatal(err)
	}
	pet := tb.PredictedAET(false)
	ratio := float64(pet) / float64(a.AET)
	if ratio < 0.97 || ratio > 1.03 {
		t.Errorf("Eq.1 over all phases: PET %v vs AET %v (ratio %.3f)", pet, a.AET, ratio)
	}
	// Relevant-only prediction loses only the irrelevant share.
	petRel := tb.PredictedAET(true)
	if petRel > pet {
		t.Error("relevant-only PET cannot exceed all-phase PET")
	}
	if float64(petRel) < 0.90*float64(a.AET) {
		t.Errorf("relevant-only PET %v lost too much of AET %v", petRel, a.AET)
	}
}

func TestMasterWorkerSinglePhase(t *testing.T) {
	// §6's pathological case: one send/recv round per worker with no
	// repetition folds into very few phases, and the dominant phase
	// has weight 1, so SET would approach AET.
	body := func(c *mpi.Comm) {
		if c.Rank() == 0 {
			for s := 1; s < c.Size(); s++ {
				c.SendN(s, 0, 4096)
			}
			for s := 1; s < c.Size(); s++ {
				c.RecvN(mpi.AnySource, 1)
			}
		} else {
			c.RecvN(0, 0)
			c.Compute(1e6)
			c.SendN(0, 1, 4096)
		}
	}
	a := analyzeApp(t, machine.ClusterA(), 8, body, DefaultConfig())
	byDur := a.SortedByTotalDur()
	if byDur[0].Weight() != 1 {
		t.Errorf("master/worker dominant phase weight = %d, want 1", byDur[0].Weight())
	}
}

func TestExtractValidation(t *testing.T) {
	if _, err := Extract(nil, DefaultConfig()); err == nil {
		t.Error("nil logical trace should fail")
	}
	bad := DefaultConfig()
	bad.EventSimilarity = 0
	a := analyzeApp(t, machine.ClusterA(), 2, iterativeBody(3), DefaultConfig())
	if _, err := Extract(a.Logical, bad); err == nil {
		t.Error("zero similarity threshold should fail")
	}
	bad2 := DefaultConfig()
	bad2.RelevanceFraction = 1.5
	if _, err := Extract(a.Logical, bad2); err == nil {
		t.Error("relevance fraction > 1 should fail")
	}
}

func TestRatioAtLeast(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		a, b, th float64
		want     bool
	}{
		{0, 0, 0.85, true},
		{100, 100, 0.85, true},
		{85, 100, 0.85, true},
		{84, 100, 0.85, false},
		{100, 85, 0.85, true},
		{0, 100, 0.85, false},
		{100, 0, 0.85, false},
		{1e9, 1e9 * 0.9, 0.85, true},
		// Negative (corrupt) inputs must never compare similar — the
		// old max<=0 shortcut silently matched all of these.
		{-5, -5, 0.85, false},
		{-5, -4, 0.85, false},
		{-1, 0, 0.85, false},
		{0, -1, 0.85, false},
		{-100, 100, 0.85, false},
		{100, -100, 0.85, false},
		// NaN anywhere is corrupt data: dissimilar.
		{nan, 100, 0.85, false},
		{100, nan, 0.85, false},
		{nan, nan, 0.85, false},
	}
	for _, c := range cases {
		if got := ratioAtLeast(c.a, c.b, c.th); got != c.want {
			t.Errorf("ratioAtLeast(%v,%v,%v) = %v", c.a, c.b, c.th, got)
		}
	}
}

func TestConfigValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	mod := func(f func(c *Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", DefaultConfig(), true},
		{"event NaN", mod(func(c *Config) { c.EventSimilarity = nan }), false},
		{"compute NaN", mod(func(c *Config) { c.ComputeSimilarity = nan }), false},
		{"volume NaN", mod(func(c *Config) { c.VolumeSimilarity = nan }), false},
		{"relevance NaN", mod(func(c *Config) { c.RelevanceFraction = nan }), false},
		{"event +Inf", mod(func(c *Config) { c.EventSimilarity = inf }), false},
		{"compute -Inf", mod(func(c *Config) { c.ComputeSimilarity = -inf }), false},
		{"volume +Inf", mod(func(c *Config) { c.VolumeSimilarity = inf }), false},
		{"relevance +Inf", mod(func(c *Config) { c.RelevanceFraction = inf }), false},
		{"relevance -Inf", mod(func(c *Config) { c.RelevanceFraction = -inf }), false},
		{"event zero", mod(func(c *Config) { c.EventSimilarity = 0 }), false},
		{"event above one", mod(func(c *Config) { c.EventSimilarity = 1.01 }), false},
	}
	for _, c := range cases {
		if err := c.cfg.validate(); (err == nil) != c.ok {
			t.Errorf("%s: validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestSimilarityThresholdEffect(t *testing.T) {
	// Slightly jittered compute times: a strict compute threshold must
	// produce at least as many phases as the paper's 85%.
	body := func(c *mpi.Comm) {
		n := c.Size()
		for i := 0; i < 20; i++ {
			// 10% jitter alternating iterations.
			c.Compute(2e5 * (1 + 0.1*float64(i%2)))
			c.SendrecvN((c.Rank()+1)%n, 0, 2048, (c.Rank()+n-1)%n, 0)
		}
	}
	loose := DefaultConfig()
	strict := DefaultConfig()
	strict.ComputeSimilarity = 0.99
	strict.EventSimilarity = 0.99
	la := analyzeApp(t, machine.ClusterA(), 4, body, loose)
	sa := analyzeApp(t, machine.ClusterA(), 4, body, strict)
	if len(sa.Phases) < len(la.Phases) {
		t.Errorf("strict similarity found %d phases, loose found %d", len(sa.Phases), len(la.Phases))
	}
	if len(la.Phases) > 4 {
		t.Errorf("loose similarity should fold jittered iterations, got %d phases", len(la.Phases))
	}
}

func TestBuildTableBoundaries(t *testing.T) {
	a := analyzeApp(t, machine.ClusterA(), 4, iterativeBody(10), DefaultConfig())
	tb, err := a.BuildTable(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	if tb.TotalPhases != len(a.Phases) {
		t.Error("TotalPhases mismatch")
	}
	// Designated occurrence must be the second one (index 1) for
	// phases with weight > 1.
	for _, r := range tb.Rows {
		if r.Weight > 1 && r.Occurrence != 1 {
			t.Errorf("phase %d designated occurrence %d, want 1", r.PhaseID, r.Occurrence)
		}
		if r.Weight == 1 && r.Occurrence != 0 {
			t.Errorf("weight-1 phase %d designated occurrence %d, want 0", r.PhaseID, r.Occurrence)
		}
	}
	if _, err := a.BuildTable(-1); err == nil {
		t.Error("negative occurrence should fail")
	}
}

// TestValidateRefusesNonFiniteETScale: JSON cannot carry these, so
// the signature loader's table test cannot reach them.
func TestValidateRefusesNonFiniteETScale(t *testing.T) {
	a := analyzeApp(t, machine.ClusterA(), 4, iterativeBody(10), DefaultConfig())
	for _, sc := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tb, err := a.BuildTable(1)
		if err != nil {
			t.Fatal(err)
		}
		tb.Rows[0].ETScale = sc
		if err := tb.Validate(); err == nil {
			t.Errorf("Validate accepted ETScale %v", sc)
		}
	}
}

func TestTablePrint(t *testing.T) {
	a := analyzeApp(t, machine.ClusterA(), 4, iterativeBody(10), DefaultConfig())
	tb, err := a.BuildTable(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tb.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "PHASE_TABLE") || !strings.Contains(out, "Weight") {
		t.Errorf("table print missing headers:\n%s", out)
	}
}

func TestSummary(t *testing.T) {
	a := analyzeApp(t, machine.ClusterA(), 4, iterativeBody(10), DefaultConfig())
	s := a.Summary()
	if !strings.Contains(s, "Total of phases") {
		t.Errorf("summary = %q", s)
	}
}

func TestMachineIndependentPhases(t *testing.T) {
	// Phase structure (count, weights) must match across base machines
	// for a deterministic app — the heart of cross-machine prediction.
	var ref *Analysis
	for _, cl := range []*machine.Cluster{machine.ClusterA(), machine.ClusterC()} {
		a := analyzeApp(t, cl, 8, iterativeBody(15), DefaultConfig())
		if ref == nil {
			ref = a
			continue
		}
		if len(a.Phases) != len(ref.Phases) {
			t.Fatalf("%s: %d phases vs %d", cl.Name, len(a.Phases), len(ref.Phases))
		}
		for i := range a.Phases {
			if a.Phases[i].Weight() != ref.Phases[i].Weight() {
				t.Errorf("phase %d weight %d vs %d", i, a.Phases[i].Weight(), ref.Phases[i].Weight())
			}
			if a.Phases[i].TickLen != ref.Phases[i].TickLen {
				t.Errorf("phase %d ticklen differs", i)
			}
		}
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	a := analyzeApp(t, machine.ClusterA(), 2, iterativeBody(5), DefaultConfig())
	// Corrupt: duplicate an occurrence.
	p := a.Phases[0]
	p.Occurrences = append(p.Occurrences, p.Occurrences[0])
	if err := a.Validate(); err == nil {
		t.Error("overlapping occurrences should fail validation")
	}
}

// TestAnalyzeTraceWithLogNarration pins the Fig. 6 narration that
// `pas2p analyze -explain` prints: on a small iterative run the scan
// must report the step 4b split of the init segment, the step 4a
// period closes, the step 5 folds, the step 6 restarts and the
// trailing window, line for line, whether Analyze drains a run's
// recording or reads the rank streams of a second run's v2 tracefile.
func TestAnalyzeTraceWithLogNarration(t *testing.T) {
	d, err := machine.NewDeployment(machine.ClusterA(), 2, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *trace.Recording {
		res, err := mpi.Run(mpi.App{Name: "t", Procs: 2, Body: iterativeBody(4)}, mpi.RunConfig{Deployment: d, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Recording
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, run().Trace()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.pas2p")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	br, err := trace.NewBlockReader(f)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := br.RankStreams()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"tick 6: repeat of tick-3 event -> step 4b, partition into [0,3) and [3,6)",
		"  window [0,3) is new -> phase 1 (4 events)",
		"  window [3,6) is new -> phase 2 (6 events)",
		"tick 6: new startpoint (step 6)",
		"tick 9: repeat of the startpoint event -> step 4a, close phase [6,9)",
		"  window [6,9) similar to phase 2 -> weight 2 (step 5)",
		"tick 9: new startpoint (step 6)",
		"tick 12: repeat of the startpoint event -> step 4a, close phase [9,12)",
		"  window [9,12) similar to phase 2 -> weight 3 (step 5)",
		"tick 12: new startpoint (step 6)",
		"  window [12,15) similar to phase 2 -> weight 4 (step 5)",
	}
	for label, src := range map[string]logical.EventSource{"recording": run().Drain(), "v2 file": rs} {
		var got []string
		logf := func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) }
		if _, err := Analyze(context.Background(), src, StreamConfig{Config: DefaultConfig()}, 1, logf); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s: narration diverges:\n got:\n%s\nwant:\n%s", label, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
