package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// validDoc is a minimal well-formed scenario used as the mutation base.
const validDoc = `name: demo
app:
  name: cg
  ranks: 8
base: A
target: B
assert:
  phases_min: 1
`

func TestParseValidScenario(t *testing.T) {
	doc := `# full-feature scenario
name: full.demo-1
description: everything at once
app:
  name: lu
  ranks: 16
  workload: classA
base:
  cluster: C
  cores: 8
  mapping: cyclic
targets: [A, B]
faults:
  spec: loss=0.05,crash=0.2,attempts=10
  seeds: [1, 2, 3]
timeout: 90s
assert:
  pete_bound: 6.5
  phases_min: 2
  phases_max: 12
  relevant_min: 1
  coverage_min: 0.8
  recovery_invariant: true
  determinism: true
  max_wall: 30s
`
	s, err := Parse("full.yaml", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "full.demo-1" || s.App.Name != "lu" || s.App.Ranks != 16 || s.App.Workload != "classA" {
		t.Errorf("app decoded wrong: %+v", s)
	}
	if s.Base.Cluster != "C" || s.Base.Cores != 8 || s.Base.Mapping != "cyclic" {
		t.Errorf("base decoded wrong: %+v", s.Base)
	}
	if len(s.Targets) != 2 || s.Targets[0].Label() != "A" || s.Targets[1].Label() != "B" {
		t.Errorf("targets decoded wrong: %+v", s.Targets)
	}
	if s.Faults == nil || s.Faults.Spec != "loss=0.05,crash=0.2,attempts=10" ||
		len(s.Faults.Seeds) != 3 {
		t.Errorf("faults decoded wrong: %+v", s.Faults)
	}
	if s.Timeout != 90*time.Second {
		t.Errorf("timeout = %v", s.Timeout)
	}
	a := s.Assert
	if !a.HasPETEBound || a.PETEBound != 6.5 || !a.HasPhasesMin || a.PhasesMin != 2 ||
		!a.HasPhasesMax || a.PhasesMax != 12 || !a.HasRelevantMin || a.RelevantMin != 1 ||
		!a.HasCoverageMin || a.CoverageMin != 0.8 || !a.RecoveryInvariant || !a.Determinism ||
		a.MaxWall != 30*time.Second {
		t.Errorf("assertions decoded wrong: %+v", a)
	}
	if n := a.count(); n != 8 {
		t.Errorf("assertion count = %d, want 8", n)
	}
	// The matrix: 2 targets x 3 seeds.
	cases := s.Cases()
	if len(cases) != 6 {
		t.Fatalf("expanded %d cases, want 6", len(cases))
	}
	if got := cases[0].ID(); got != "full.demo-1/target=A/seed=1" {
		t.Errorf("case ID = %q", got)
	}
	if got := cases[5].ID(); got != "full.demo-1/target=B/seed=3" {
		t.Errorf("case ID = %q", got)
	}
}

// TestScenarioRejects pins the satellite requirement: unknown keys and
// unknown assertion names fail validation loudly — the typo
// `pete_boundd:` must never silently weaken a campaign — and every
// semantic error is positioned.
func TestScenarioRejects(t *testing.T) {
	// mutate swaps one line of validDoc (1-based index) for repl.
	mutate := func(line int, repl ...string) string {
		lines := strings.Split(strings.TrimRight(validDoc, "\n"), "\n")
		out := append(append(append([]string{}, lines[:line-1]...), repl...), lines[line:]...)
		return strings.Join(out, "\n") + "\n"
	}
	cases := []struct {
		name string
		doc  string
		msg  string
	}{
		{"unknown top-level key", validDoc + "bogus: 1\n", `unknown scenario key "bogus"`},
		{"assertion typo pete_boundd", mutate(8, "  pete_boundd: 3"), `unknown assertion key "pete_boundd"`},
		{"unknown app key", mutate(4, "  ranks: 8", "  size: big"), `unknown app key "size"`},
		{"unknown machine key", mutate(6, "target:", "  cluster: B", "  speed: 9"), `unknown machine key "speed"`},
		{"unknown faults key", validDoc + "faults:\n  spec: loss=0.1\n  sedes: [1]\n", `unknown faults key "sedes"`},
		{"missing name", strings.Replace(validDoc, "name: demo\n", "", 1), "needs a name"},
		{"bad name", mutate(1, "name: De mo"), "must match"},
		{"missing app", strings.Replace(validDoc, "app:\n  name: cg\n  ranks: 8\n", "", 1), "needs an app"},
		{"missing ranks", mutate(4, ""), "needs a ranks count"},
		{"ranks too small", mutate(4, "  ranks: 1"), "outside [2, 4096]"},
		{"ranks too large", mutate(4, "  ranks: 9999"), "outside [2, 4096]"},
		{"ranks not integer", mutate(4, "  ranks: many"), "not an integer"},
		{"unknown app", mutate(3, "  name: hpl"), "hpl"},
		{"unknown workload", mutate(4, "  ranks: 8", "  workload: classZ"), "classZ"},
		{"missing base", mutate(5), "needs a base"},
		{"missing target", mutate(6), "needs a target"},
		{"target and targets", mutate(6, "target: B", "targets: [C]"), "not both"},
		{"unknown cluster", mutate(6, "target: Z"), `unknown cluster "Z"`},
		{"targets not a list", mutate(6, "targets: B"), "must be a list"},
		{"targets with overrides", mutate(6, "targets:", "  cluster: B"), "must be a list"},
		{"duplicate target", mutate(6, "targets: [B, B]"), `duplicate target "B"`},
		{"bad mapping", mutate(6, "target:", "  cluster: B", "  mapping: diagonal"), "must be block or cyclic"},
		{"bad interconnect", mutate(6, "target:", "  cluster: B", "  interconnect: carrier-pigeon"), "unknown interconnect"},
		{"negative nodes", mutate(6, "target:", "  cluster: B", "  nodes: -1"), "must be positive"},
		{"bad gflops", mutate(6, "target:", "  cluster: B", "  gflops: zero"), "not a number"},
		{"no assert block", strings.Replace(validDoc, "assert:\n  phases_min: 1\n", "", 1), "needs an assert block"},
		{"empty assertions", mutate(8, "  recovery_invariant: false"), "configures no assertion"},
		{"pete bound out of range", mutate(8, "  pete_bound: 150"), "outside [0, 100]"},
		{"coverage out of range", mutate(8, "  coverage_min: 1.5"), "outside (0, 1]"},
		{"phases_min zero", mutate(8, "  phases_min: 0"), "at least 1"},
		{"phases_min over max", mutate(8, "  phases_min: 5", "  phases_max: 2"), "exceeds phases_max"},
		{"bad boolean", mutate(8, "  determinism: maybe"), "not a boolean"},
		{"bad max_wall", mutate(8, "  max_wall: fast"), "not a positive duration"},
		{"bad max_alloc", mutate(8, "  max_alloc: 2GiB"), `unknown assertion key "max_alloc"`},
		{"recovery without faults", mutate(8, "  recovery_invariant: true"), "requires a faults block"},
		{"bad fault spec key", validDoc + "faults:\n  spec: explosions=0.5\n", "unknown key"},
		{"empty fault spec", validDoc + "faults:\n  spec: \"\"\n", "enables no fault class"},
		{"no-op fault spec", validDoc + "faults:\n  spec: loss=0\n", "enables no fault class"},
		{"faults without spec", validDoc + "faults:\n  seeds: [1]\n", "needs a spec"},
		{"empty seeds", validDoc + "faults:\n  spec: loss=0.1\n  seeds: []\n", "must not be empty"},
		{"duplicate seeds", validDoc + "faults:\n  spec: loss=0.1\n  seeds: [1, 1]\n", "duplicate seed"},
		{"seed not integer", validDoc + "faults:\n  spec: loss=0.1\n  seeds: [one]\n", "not an integer"},
		{"bad timeout", validDoc + "timeout: 0s\n", "not a positive duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("mut.yaml", []byte(tc.doc))
			if err == nil {
				t.Fatalf("validation accepted:\n%s", tc.doc)
			}
			pe, ok := AsParseError(err)
			if !ok {
				t.Fatalf("error is not positioned: %v", err)
			}
			if pe.Line < 1 || pe.File != "mut.yaml" {
				t.Errorf("bad position %s:%d", pe.File, pe.Line)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("error %q does not mention %q", err, tc.msg)
			}
		})
	}
}

// TestFaultFreeCaseExpansion: without faults there is exactly one case
// per target and the ID marks the seed as absent.
func TestFaultFreeCaseExpansion(t *testing.T) {
	s, err := Parse("v.yaml", []byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	cases := s.Cases()
	if len(cases) != 1 {
		t.Fatalf("%d cases, want 1", len(cases))
	}
	if got := cases[0].ID(); got != "demo/target=B/seed=-" {
		t.Errorf("ID = %q", got)
	}
	inj, err := cases[0].Injector()
	if err != nil || inj != nil {
		t.Errorf("fault-free case built injector %v (err %v)", inj, err)
	}
}

// TestMachineOverrides: inline overrides change the materialised
// cluster, and the deployment respects ranks and mapping.
func TestMachineOverrides(t *testing.T) {
	m := MachineSpec{Cluster: "B", Nodes: 4, CoresPerNode: 4,
		GFLOPS: 1.5, MemContention: 0.5, Interconnect: "infiniband"}
	cl, err := m.cluster()
	if err != nil {
		t.Fatal(err)
	}
	if cl.Nodes != 4 || cl.CoresPerNode != 4 || cl.CoreGFLOPS != 1.5 || cl.MemContention != 0.5 {
		t.Errorf("overrides not applied: %+v", cl)
	}
	d, err := m.Deployment(8)
	if err != nil {
		t.Fatal(err)
	}
	if d.Ranks != 8 {
		t.Errorf("deployment ranks = %d", d.Ranks)
	}
	// cores restricts the node count like the CLI's -cores flag.
	mc := NewMachineSpec("A")
	mc.Cores = 8
	cl, err = mc.cluster()
	if err != nil {
		t.Fatal(err)
	}
	if cl.Nodes != 4 { // 8 cores / 2 per node
		t.Errorf("cores restriction: %d nodes, want 4", cl.Nodes)
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, doc string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("b.yaml", strings.Replace(validDoc, "demo", "bbb", 1))
	write("a.yaml", strings.Replace(validDoc, "demo", "aaa", 1))
	write("ignored.txt", "not yaml")
	ss, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 2 || ss[0].Name != "aaa" || ss[1].Name != "bbb" {
		t.Fatalf("LoadDir order wrong: %+v", ss)
	}
	// Duplicate scenario names across files are ambiguous.
	write("c.yaml", strings.Replace(validDoc, "demo", "aaa", 1))
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "duplicate scenario name") {
		t.Fatalf("duplicate names accepted: %v", err)
	}
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// TestExampleSuiteValid: the shipped starter suite must always parse,
// cover every registered app, at least two machine models and at least
// two fault seeds — the acceptance envelope of the campaign CI runs.
func TestExampleSuiteValid(t *testing.T) {
	ss, err := LoadDir("../../examples/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) < 10 {
		t.Fatalf("starter suite has %d scenarios, want >= 10", len(ss))
	}
	apps := map[string]bool{}
	models := map[string]bool{}
	seeds := map[int64]bool{}
	cases := 0
	for _, s := range ss {
		apps[s.App.Name] = true
		models[s.Base.Label()] = true
		for _, tg := range s.Targets {
			models[tg.Label()] = true
		}
		if s.Faults != nil {
			for _, sd := range s.Faults.Seeds {
				seeds[sd] = true
			}
		}
		cases += len(s.Cases())
	}
	if len(apps) < 13 {
		t.Errorf("suite covers %d apps, want all 13: %v", len(apps), apps)
	}
	if len(models) < 2 {
		t.Errorf("suite covers %d machine models, want >= 2", len(models))
	}
	if len(seeds) < 2 {
		t.Errorf("suite sweeps %d fault seeds, want >= 2", len(seeds))
	}
	if cases < 10 {
		t.Errorf("suite expands to %d cases, want >= 10", cases)
	}
}
