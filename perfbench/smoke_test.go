package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// These smoke tests run each workload end to end on small inputs, once
// untraced and once traced, and hold the result to the benchmark's own
// rules: no failed operation, every end-to-end metric measured, and
// the stage self times explaining the traced wall time.

func smokeEnv(t *testing.T, traced bool, seconds time.Duration) *env {
	dir := t.TempDir()
	return &env{seed: 7, seconds: seconds, traced: traced, work: filepath.Join(dir, "work"),
		spans: filepath.Join(dir, "spans.json"), log: testLog{t}}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}

func checkSmoke(t *testing.T, out *outcome, err error, traced bool) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range out.failures {
		t.Error(f)
	}
	res, err := buildResult(out, traced)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%d of %d operations failed", res.Failed, res.Attempted)
	}
}

func TestSmokePredict(t *testing.T) {
	cfg := predictConfig{
		cases:    []appCase{{"cg", "classA", 8}, {"ft", "classA", 8}},
		warm:     appCase{"cg", "classA", 4},
		ceilings: map[string]float64{"cg": 10, "ft": 10},
	}
	for _, traced := range []bool{false, true} {
		e := smokeEnv(t, traced, time.Nanosecond)
		out, err := predictWorkload(context.Background(), e, cfg)
		checkSmoke(t, out, err, traced)
		if traced {
			if c := out.values["bench.stage_coverage_pct"]; c < 95 {
				t.Errorf("stage self times cover %.1f%% of the traced wall time", c)
			}
			checkSpans(t, e)
			if out.values["predict.cg_s"] <= 0 || out.values["signature.execute_s"] <= 0 {
				t.Error("per-app or per-stage time missing")
			}
		}
	}
}

// checkSpans reads back the spans a traced run wrote: every one must
// close after it opened, inside its parent.
func checkSpans(t *testing.T, e *env) {
	t.Helper()
	b, err := os.ReadFile(e.spans)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("the traced run wrote no spans")
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if p := s.Parent; p != 0 && (spans[p-1].Start > s.Start || spans[p-1].End < s.End || spans[p-1].Op != s.Op) {
			t.Fatalf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p, spans[p-1].Name)
		}
	}
}

func TestSmokeAnalyze(t *testing.T) {
	cfg := analyzeConfig{traced: []appCase{{"cg", "classA", 8}}, synthProcs: 8, synthEvents: 50_000}
	for _, traced := range []bool{false, true} {
		e := smokeEnv(t, traced, time.Nanosecond)
		out, err := analyzeWorkload(context.Background(), e, cfg)
		checkSmoke(t, out, err, traced)
		if traced {
			checkSpans(t, e)
			if c := out.values["bench.stage_coverage_pct"]; c < 95 {
				t.Errorf("rank read, merge and streamed extraction cover %.1f%% of the streamed wall time", c)
			}
			if out.values["phase.spilled_phases"] <= 0 {
				t.Error("the forced-spill pass spilled nothing")
			}
		}
	}
}

func TestSmokeServe(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts pas2pd")
	}
	bin := filepath.Join(t.TempDir(), "pas2pd")
	build := exec.Command("go", "build", "-o", bin, "pas2p/cmd/pas2pd")
	if b, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pas2pd: %v\n%s", err, b)
	}
	cfg := defaultServe
	cfg.keys = []appCase{{"ft", "", 4}}
	cfg.repeated = []appCase{{"cg", "classA", 4}}
	cfg.freshProcs, cfg.freshEvents = 8, 2000
	cfg.nominalRPS, cfg.tracedNominal = 40, 2*time.Second
	cfg.ladder, cfg.stepSeconds = []float64{1}, time.Second
	cfg.capacityBatch, cfg.capacityPasses = 30, 2
	for _, traced := range []bool{false, true} {
		e := smokeEnv(t, traced, 2*time.Second)
		e.pas2pd = bin
		out, err := serveWorkload(context.Background(), e, cfg)
		checkSmoke(t, out, err, traced)
		if traced {
			checkSpans(t, e)
		}
	}
}

// unlisted names the workloads the benchmark implements but
// BENCHMARK.json leaves out. serve fails on the program as it stands:
// pas2pd's analysis cache answers a tracefile with the analysis of
// another of the same size (README.md, "serve fails"), so every serve
// run exits 1. It goes back into BENCHMARK.json once the cache key is
// fixed.
var unlisted = map[string]bool{"serve": true}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric
// lists the benchmark prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range doc.Workloads {
		listed[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	for name := range workloads {
		if !listed[name] && !unlisted[name] {
			t.Errorf("workload %q is neither in BENCHMARK.json nor in unlisted", name)
		}
		if listed[name] && unlisted[name] {
			t.Errorf("workload %q is in BENCHMARK.json and in unlisted", name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
