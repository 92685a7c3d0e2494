package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"pas2p/internal/apps"
	"pas2p/internal/faults"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
)

// maxRanks bounds scenario rank counts: campaigns are test harnesses,
// and an absurd rank count should fail validation, not OOM the runner.
const maxRanks = 4096

// AppRef names the application a scenario runs.
type AppRef struct {
	Name     string
	Ranks    int
	Workload string // empty selects the app's default
}

// make instantiates the app from the registry.
func (a AppRef) make() (mpi.App, error) {
	return apps.Make(a.Name, a.Ranks, a.Workload)
}

// MachineSpec selects a machine model: a Table 2 preset by name, with
// optional inline overrides (node count, per-node cores, compute rate,
// memory contention, interconnect family) and deployment knobs (core
// restriction, mapping policy). Label is the preset name as written in
// the scenario and identifies the model in reports.
type MachineSpec struct {
	Cluster       string
	Cores         int     // restrict to this many cores (0 = all)
	Mapping       string  // "block" (default) or "cyclic"
	Nodes         int     // override node count (0 = preset)
	CoresPerNode  int     // override per-node cores (0 = preset)
	GFLOPS        float64 // override per-core rate (0 = preset)
	MemContention float64 // override contention factor (<0 = preset)
	Interconnect  string  // "", "gigabit" or "infiniband"

	line int
}

// NewMachineSpec returns a spec for a preset with default knobs, as the
// decoder would build for `cluster: <name>`.
func NewMachineSpec(cluster string) MachineSpec {
	return MachineSpec{Cluster: cluster, MemContention: -1}
}

// Label identifies the model in case IDs and reports.
func (m *MachineSpec) Label() string { return m.Cluster }

// cluster materialises the model: preset plus overrides, validated.
func (m *MachineSpec) cluster() (*machine.Cluster, error) {
	cl := machine.ByName(m.Cluster)
	if cl == nil {
		return nil, fmt.Errorf("unknown cluster %q (use a Table 2 preset name: A, B, C or D)", m.Cluster)
	}
	if m.Nodes > 0 {
		cl.Nodes = m.Nodes
	}
	if m.CoresPerNode > 0 {
		cl.CoresPerNode = m.CoresPerNode
	}
	if m.GFLOPS > 0 {
		cl.CoreGFLOPS = m.GFLOPS
	}
	if m.MemContention >= 0 {
		cl.MemContention = m.MemContention
	}
	switch m.Interconnect {
	case "":
	case "gigabit":
		cl.Interconnect = machine.GigabitEthernet()
	case "infiniband":
		cl.Interconnect = machine.InfiniBand()
	default:
		return nil, fmt.Errorf("unknown interconnect %q (gigabit or infiniband)", m.Interconnect)
	}
	if err := cl.Restrict(m.Cores); err != nil {
		return nil, err
	}
	return cl, nil
}

// Deployment lays the scenario's ranks out on the model.
func (m *MachineSpec) Deployment(ranks int) (*machine.Deployment, error) {
	cl, err := m.cluster()
	if err != nil {
		return nil, err
	}
	policy := machine.MapBlock
	if m.Mapping == "cyclic" {
		policy = machine.MapCyclic
	}
	return machine.NewDeployment(cl, ranks, policy)
}

// FaultPlan is a scenario's fault dimension: one spec (the
// faults.ParseSpec grammar) swept over one or more seeds.
type FaultPlan struct {
	Spec  string
	Seeds []int64
}

// Assertions are the checks a scenario makes about each of its cases.
// Each Has* flag records whether the scenario set the bound (the zero
// value of a bound is not a sentinel).
type Assertions struct {
	// PETEBound: the prediction error |PET-AET|/AET must not exceed
	// this many percent (the paper's headline claim, e.g. `lu <= 3`).
	PETEBound    float64
	HasPETEBound bool
	// PhasesMin/PhasesMax bound the total extracted phase count.
	PhasesMin, PhasesMax       int
	HasPhasesMin, HasPhasesMax bool
	// RelevantMin is the minimum number of relevant phases.
	RelevantMin    int
	HasRelevantMin bool
	// CoverageMin: the relevant phases' Eq. 1 mass (Σ PhaseET·W over
	// relevant rows) must cover at least this fraction of the base AET.
	CoverageMin    float64
	HasCoverageMin bool
	// RecoveryInvariant: under a fully-recovering fault schedule the
	// phase set and prediction must match the fault-free pipeline
	// bit-identically (PR 3's chaos property). Requires a faults block.
	RecoveryInvariant bool
	// Determinism: re-running the case (same seed) must reproduce the
	// identical prediction, signature time, phase counts and fault
	// report.
	Determinism bool
	// MaxWall bounds the case's wall-clock time.
	MaxWall time.Duration
}

// count returns how many assertions are configured.
func (a *Assertions) count() int {
	n := 0
	for _, has := range []bool{
		a.HasPETEBound, a.HasPhasesMin, a.HasPhasesMax, a.HasRelevantMin,
		a.HasCoverageMin, a.RecoveryInvariant, a.Determinism,
		a.MaxWall > 0,
	} {
		if has {
			n++
		}
	}
	return n
}

// Scenario is one declarative experiment: app, machines, optional
// faults, and assertions.
type Scenario struct {
	Name        string
	Description string
	File        string // source path, "" for in-memory scenarios
	App         AppRef
	Base        MachineSpec
	Targets     []MachineSpec
	Faults      *FaultPlan
	// Timeout overrides the campaign's per-case timeout.
	Timeout time.Duration
	Assert  Assertions
}

// Case is one expanded matrix cell: a scenario at one target model and
// one fault seed.
type Case struct {
	Scenario *Scenario
	Target   MachineSpec
	// Seed is the fault seed; meaningful only when the scenario has a
	// fault plan.
	Seed int64
}

// ID identifies the case in reports: name/target=B/seed=3 (seed=- for
// fault-free scenarios).
func (c Case) ID() string {
	seed := "-"
	if c.Scenario.Faults != nil {
		seed = strconv.FormatInt(c.Seed, 10)
	}
	return fmt.Sprintf("%s/target=%s/seed=%s", c.Scenario.Name, c.Target.Label(), seed)
}

// Cases expands the scenario's sweep matrix (targets × fault seeds) in
// deterministic file order.
func (s *Scenario) Cases() []Case {
	var out []Case
	for _, tgt := range s.Targets {
		if s.Faults == nil {
			out = append(out, Case{Scenario: s, Target: tgt})
			continue
		}
		for _, seed := range s.Faults.Seeds {
			out = append(out, Case{Scenario: s, Target: tgt, Seed: seed})
		}
	}
	return out
}

// Injector builds the case's fault injector (nil for fault-free cases).
func (c Case) Injector() (*faults.Injector, error) {
	if c.Scenario.Faults == nil {
		return nil, nil
	}
	return faults.ParseSpec(c.Seed, c.Scenario.Faults.Spec)
}

// Parse parses and fully validates one scenario document. Every error
// is positioned (file:line) — including semantic errors like unknown
// applications, clusters, assertion names or fault-spec keys — so a
// campaign author can fix the exact offending entry.
func Parse(file string, data []byte) (*Scenario, error) {
	root, err := parseTree(file, data)
	if err != nil {
		return nil, err
	}
	d := &decoder{file: file}
	s := d.scenario(root)
	if d.err != nil {
		return nil, d.err
	}
	s.File = file
	return s, nil
}

// decoder walks the node tree with strict key checking. It records the
// first error and makes every subsequent step a no-op, so decode code
// reads straight-line.
type decoder struct {
	file string
	err  error
}

func (d *decoder) fail(line int, format string, args ...any) {
	if d.err == nil {
		d.err = errAt(d.file, line, format, args...)
	}
}

// checkKeys rejects unknown keys in a mapping, naming the valid set.
func (d *decoder) checkKeys(n *node, context string, known ...string) {
	if d.err != nil {
		return
	}
	for _, e := range n.entries {
		found := false
		for _, k := range known {
			if e.key == k {
				found = true
				break
			}
		}
		if !found {
			d.fail(e.keyLine, "unknown %s key %q (known keys: %s)",
				context, e.key, strings.Join(known, ", "))
			return
		}
	}
}

func (d *decoder) scalar(n *node, what string) string {
	if d.err != nil {
		return ""
	}
	if n.isMap || n.isSeq {
		d.fail(n.line, "%s must be a scalar", what)
		return ""
	}
	return n.scalar
}

func (d *decoder) str(n *node, what string) string {
	s := d.scalar(n, what)
	if d.err == nil && s == "" && !n.quoted {
		d.fail(n.line, "%s must not be empty", what)
	}
	return s
}

func (d *decoder) integer(n *node, what string) int {
	s := d.scalar(n, what)
	if d.err != nil {
		return 0
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		d.fail(n.line, "%s: %q is not an integer", what, s)
		return 0
	}
	return v
}

func (d *decoder) float(n *node, what string) float64 {
	s := d.scalar(n, what)
	if d.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		d.fail(n.line, "%s: %q is not a number", what, s)
		return 0
	}
	return v
}

func (d *decoder) boolean(n *node, what string) bool {
	s := d.scalar(n, what)
	if d.err != nil {
		return false
	}
	switch s {
	case "true", "yes", "on":
		return true
	case "false", "no", "off":
		return false
	}
	d.fail(n.line, "%s: %q is not a boolean (true/false)", what, s)
	return false
}

func (d *decoder) duration(n *node, what string) time.Duration {
	s := d.scalar(n, what)
	if d.err != nil {
		return 0
	}
	v, err := time.ParseDuration(s)
	if err != nil || v <= 0 {
		d.fail(n.line, "%s: %q is not a positive duration (e.g. 30s, 2m)", what, s)
		return 0
	}
	return v
}

func (d *decoder) seeds(n *node) []int64 {
	if d.err != nil {
		return nil
	}
	if !n.isSeq {
		d.fail(n.line, "seeds must be a list of integers, e.g. [1, 2]")
		return nil
	}
	var out []int64
	seen := map[int64]bool{}
	for _, item := range n.items {
		s := d.scalar(item, "seed")
		if d.err != nil {
			return nil
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			d.fail(item.line, "seed %q is not an integer", s)
			return nil
		}
		if seen[v] {
			d.fail(item.line, "duplicate seed %d", v)
			return nil
		}
		seen[v] = true
		out = append(out, v)
	}
	if len(out) == 0 {
		d.fail(n.line, "seeds list must not be empty")
	}
	return out
}

func (d *decoder) scenario(root *node) *Scenario {
	d.checkKeys(root, "scenario", "name", "description", "app", "base",
		"target", "targets", "faults", "timeout", "assert")
	s := &Scenario{}
	if n := root.get("name"); n != nil {
		s.Name = d.str(n, "name")
		if d.err == nil && !validName(s.Name) {
			d.fail(n.line, "name %q must match [a-z0-9._-]+", s.Name)
		}
	} else {
		d.fail(root.line, "scenario needs a name")
	}
	if n := root.get("description"); n != nil {
		s.Description = d.scalar(n, "description")
	}
	if n := root.get("app"); n != nil {
		s.App = d.app(n)
	} else {
		d.fail(root.line, "scenario needs an app block")
	}
	if n := root.get("base"); n != nil {
		s.Base = d.machine(n)
	} else {
		d.fail(root.line, "scenario needs a base machine block")
	}
	tgt, tgts := root.get("target"), root.get("targets")
	switch {
	case tgt != nil && tgts != nil:
		d.fail(tgts.line, "give either target or targets, not both")
	case tgt != nil:
		s.Targets = []MachineSpec{d.machine(tgt)}
	case tgts != nil:
		s.Targets = d.targets(tgts)
	default:
		d.fail(root.line, "scenario needs a target (or targets) block")
	}
	if n := root.get("faults"); n != nil {
		s.Faults = d.faults(n)
	}
	if n := root.get("timeout"); n != nil {
		s.Timeout = d.duration(n, "timeout")
	}
	if n := root.get("assert"); n != nil {
		s.Assert = d.assertions(n)
	} else {
		d.fail(root.line, "scenario needs an assert block (a scenario that checks nothing tests nothing)")
	}
	if d.err != nil {
		return nil
	}
	// Cross-field semantics.
	if s.Assert.RecoveryInvariant && s.Faults == nil {
		d.fail(root.line, "recovery_invariant requires a faults block (there is nothing to recover from)")
	}
	if s.Assert.count() == 0 {
		d.fail(root.get("assert").line, "assert block configures no assertion")
	}
	// Target labels must be unique so case IDs (and the results doc)
	// are unambiguous.
	seen := map[string]bool{}
	for i := range s.Targets {
		l := s.Targets[i].Label()
		if seen[l] {
			d.fail(s.Targets[i].line, "duplicate target %q", l)
		}
		seen[l] = true
	}
	if d.err != nil {
		return nil
	}
	return s
}

func validName(s string) bool {
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return s != ""
}

func (d *decoder) app(n *node) AppRef {
	if d.err != nil {
		return AppRef{}
	}
	if !n.isMap {
		d.fail(n.line, "app must be a block with name/ranks/workload")
		return AppRef{}
	}
	d.checkKeys(n, "app", "name", "ranks", "workload")
	var a AppRef
	if c := n.get("name"); c != nil {
		a.Name = d.str(c, "app name")
	} else {
		d.fail(n.line, "app needs a name")
	}
	if c := n.get("ranks"); c != nil {
		a.Ranks = d.integer(c, "app ranks")
		if d.err == nil && (a.Ranks < 2 || a.Ranks > maxRanks) {
			d.fail(c.line, "app ranks %d outside [2, %d]", a.Ranks, maxRanks)
		}
	} else {
		d.fail(n.line, "app needs a ranks count")
	}
	if c := n.get("workload"); c != nil {
		a.Workload = d.str(c, "app workload")
	}
	if d.err != nil {
		return AppRef{}
	}
	// Instantiating validates the app name, the workload name and the
	// rank count against the registry without running anything.
	if _, err := apps.Make(a.Name, a.Ranks, a.Workload); err != nil {
		d.fail(n.line, "%v", err)
	}
	return a
}

func (d *decoder) machine(n *node) MachineSpec {
	if d.err != nil {
		return MachineSpec{}
	}
	m := NewMachineSpec("")
	m.line = n.line
	if !n.isMap {
		// Shorthand: `target: B` names a preset with default knobs.
		m.Cluster = d.str(n, "machine")
		if d.err == nil {
			d.validateMachine(n.line, &m)
		}
		return m
	}
	d.checkKeys(n, "machine", "cluster", "cores", "mapping", "nodes",
		"cores_per_node", "gflops", "mem_contention", "interconnect")
	if c := n.get("cluster"); c != nil {
		m.Cluster = d.str(c, "cluster")
	} else {
		d.fail(n.line, "machine block needs a cluster preset name")
	}
	if c := n.get("cores"); c != nil {
		m.Cores = d.integer(c, "cores")
		if d.err == nil && m.Cores <= 0 {
			d.fail(c.line, "cores must be positive")
		}
	}
	if c := n.get("mapping"); c != nil {
		m.Mapping = d.str(c, "mapping")
		if d.err == nil && m.Mapping != "block" && m.Mapping != "cyclic" {
			d.fail(c.line, "mapping %q must be block or cyclic", m.Mapping)
		}
	}
	if c := n.get("nodes"); c != nil {
		m.Nodes = d.integer(c, "nodes")
		if d.err == nil && m.Nodes <= 0 {
			d.fail(c.line, "nodes must be positive")
		}
	}
	if c := n.get("cores_per_node"); c != nil {
		m.CoresPerNode = d.integer(c, "cores_per_node")
		if d.err == nil && m.CoresPerNode <= 0 {
			d.fail(c.line, "cores_per_node must be positive")
		}
	}
	if c := n.get("gflops"); c != nil {
		m.GFLOPS = d.float(c, "gflops")
		if d.err == nil && m.GFLOPS <= 0 {
			d.fail(c.line, "gflops must be positive")
		}
	}
	if c := n.get("mem_contention"); c != nil {
		m.MemContention = d.float(c, "mem_contention")
		if d.err == nil && m.MemContention < 0 {
			d.fail(c.line, "mem_contention must be non-negative")
		}
	}
	if c := n.get("interconnect"); c != nil {
		m.Interconnect = d.str(c, "interconnect")
	}
	if d.err == nil {
		d.validateMachine(n.line, &m)
	}
	return m
}

// validateMachine materialises the model once at parse time so bad
// presets and overrides fail with a position.
func (d *decoder) validateMachine(line int, m *MachineSpec) {
	if _, err := m.cluster(); err != nil {
		d.fail(line, "%v", err)
	}
}

func (d *decoder) targets(n *node) []MachineSpec {
	if d.err != nil {
		return nil
	}
	if !n.isSeq {
		d.fail(n.line, "targets must be a list of cluster preset names (use target: for a single model with overrides)")
		return nil
	}
	var out []MachineSpec
	for _, item := range n.items {
		m := NewMachineSpec(d.str(item, "target cluster"))
		m.line = item.line
		if d.err != nil {
			return nil
		}
		d.validateMachine(item.line, &m)
		out = append(out, m)
	}
	if len(out) == 0 {
		d.fail(n.line, "targets list must not be empty")
	}
	return out
}

func (d *decoder) faults(n *node) *FaultPlan {
	if d.err != nil {
		return nil
	}
	if !n.isMap {
		d.fail(n.line, "faults must be a block with spec/seeds")
		return nil
	}
	d.checkKeys(n, "faults", "spec", "seeds")
	p := &FaultPlan{Seeds: []int64{1}}
	if c := n.get("spec"); c != nil {
		p.Spec = d.str(c, "fault spec")
		if d.err == nil {
			if cfg, err := faults.ParseConfig(p.Spec); err != nil {
				d.fail(c.line, "%v", err)
			} else if cfg == (faults.Config{}) {
				d.fail(c.line, "fault spec %q enables no fault class", p.Spec)
			}
		}
	} else {
		d.fail(n.line, "faults block needs a spec")
	}
	if c := n.get("seeds"); c != nil {
		p.Seeds = d.seeds(c)
	}
	if d.err != nil {
		return nil
	}
	return p
}

func (d *decoder) assertions(n *node) Assertions {
	if d.err != nil {
		return Assertions{}
	}
	if !n.isMap {
		d.fail(n.line, "assert must be a block of assertion: bound entries")
		return Assertions{}
	}
	d.checkKeys(n, "assertion", "pete_bound", "phases_min", "phases_max",
		"relevant_min", "coverage_min", "recovery_invariant", "determinism",
		"max_wall")
	var a Assertions
	if c := n.get("pete_bound"); c != nil {
		a.PETEBound, a.HasPETEBound = d.float(c, "pete_bound"), true
		if d.err == nil && (a.PETEBound < 0 || a.PETEBound > 100) {
			d.fail(c.line, "pete_bound %g%% outside [0, 100]", a.PETEBound)
		}
	}
	if c := n.get("phases_min"); c != nil {
		a.PhasesMin, a.HasPhasesMin = d.integer(c, "phases_min"), true
		if d.err == nil && a.PhasesMin < 1 {
			d.fail(c.line, "phases_min must be at least 1")
		}
	}
	if c := n.get("phases_max"); c != nil {
		a.PhasesMax, a.HasPhasesMax = d.integer(c, "phases_max"), true
		if d.err == nil && a.PhasesMax < 1 {
			d.fail(c.line, "phases_max must be at least 1")
		}
	}
	if d.err == nil && a.HasPhasesMin && a.HasPhasesMax && a.PhasesMin > a.PhasesMax {
		d.fail(n.line, "phases_min %d exceeds phases_max %d", a.PhasesMin, a.PhasesMax)
	}
	if c := n.get("relevant_min"); c != nil {
		a.RelevantMin, a.HasRelevantMin = d.integer(c, "relevant_min"), true
		if d.err == nil && a.RelevantMin < 1 {
			d.fail(c.line, "relevant_min must be at least 1")
		}
	}
	if c := n.get("coverage_min"); c != nil {
		a.CoverageMin, a.HasCoverageMin = d.float(c, "coverage_min"), true
		if d.err == nil && (a.CoverageMin <= 0 || a.CoverageMin > 1) {
			d.fail(c.line, "coverage_min %g outside (0, 1]", a.CoverageMin)
		}
	}
	if c := n.get("recovery_invariant"); c != nil {
		a.RecoveryInvariant = d.boolean(c, "recovery_invariant")
	}
	if c := n.get("determinism"); c != nil {
		a.Determinism = d.boolean(c, "determinism")
	}
	if c := n.get("max_wall"); c != nil {
		a.MaxWall = d.duration(c, "max_wall")
	}
	return a
}

// LoadFile parses one scenario file.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, data)
}

// LoadDir loads every *.yaml scenario in a directory in name order and
// rejects duplicate scenario names (case IDs must be unambiguous
// across a campaign).
func LoadDir(dir string) ([]*Scenario, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".yaml") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("scenario: no *.yaml scenarios in %s", dir)
	}
	var out []*Scenario
	byName := map[string]string{}
	for _, name := range names {
		s, err := LoadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if prev, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("scenario: %s: duplicate scenario name %q (also defined in %s)", s.File, s.Name, prev)
		}
		byName[s.Name] = s.File
		out = append(out, s)
	}
	return out, nil
}

// Load resolves a path to scenarios: a directory is a campaign, a file
// is a single scenario.
func Load(path string) ([]*Scenario, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		return LoadDir(path)
	}
	s, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	return []*Scenario{s}, nil
}
