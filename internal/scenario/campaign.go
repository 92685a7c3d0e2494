package scenario

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pas2p/internal/faults"
	"pas2p/internal/mpi"
	"pas2p/internal/obs"
	"pas2p/internal/phase"
	"pas2p/internal/predict"
)

// defaultTimeout bounds a case that sets no scenario timeout.
const defaultTimeout = 2 * time.Minute

// recoveryEnvelope is the allowed fractional PET drift under a fully
// recovered fault schedule when the phase table carries an ETScale
// pair-bias correction (a physically measured ratio that jitter
// legitimately wobbles); without scaled rows the invariant is
// bit-identity. Mirrors the root chaos property test.
const recoveryEnvelope = 0.05

// Options configure a campaign run.
type Options struct {
	// Timeout is the per-case wall budget for scenarios that set none
	// (0 = 2 minutes).
	Timeout time.Duration
	// Observer, when non-nil, receives scenario.* counters, a
	// "scenario.case" span per case, and the predict pipeline's own
	// spans/metrics — the seam `pas2p scenario run -serve` exposes.
	Observer *obs.Observer
	// Log, when non-nil, receives one progress line per finished case.
	Log func(format string, args ...any)
}

// Check is one assertion's verdict on one case.
type Check struct {
	Assertion string `json:"assertion"`
	OK        bool   `json:"ok"`
	// Got is the measured value, Want the bound it was held against.
	Got  string `json:"got"`
	Want string `json:"want"`
	// Detail carries context (e.g. why an invariant was vacuous).
	Detail string `json:"detail,omitempty"`
}

func (c Check) String() string {
	verdict := "ok"
	if !c.OK {
		verdict = "FAIL"
	}
	s := fmt.Sprintf("%s: %s (got %s, want %s)", c.Assertion, verdict, c.Got, c.Want)
	if c.Detail != "" {
		s += " — " + c.Detail
	}
	return s
}

// Case statuses. A case passes only with StatusPass; everything else
// fails the campaign.
const (
	StatusPass    = "pass"
	StatusFail    = "fail"    // an assertion was violated
	StatusError   = "error"   // the pipeline itself errored
	StatusTimeout = "timeout" // the case exceeded its wall budget
	StatusPanic   = "panic"   // the pipeline panicked (isolated)
)

// CaseResult is one matrix cell's outcome.
type CaseResult struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	File     string `json:"file"`
	App      string `json:"app"`
	Ranks    int    `json:"ranks"`
	Base     string `json:"base"`
	Target   string `json:"target"`
	Seed     *int64 `json:"seed,omitempty"` // nil for fault-free cases
	Status   string `json:"status"`
	Error    string `json:"error,omitempty"`

	// Measured pipeline outputs (zero when the pipeline errored).
	PETSeconds  float64  `json:"pet_seconds"`
	SETSeconds  float64  `json:"set_seconds"`
	AETSeconds  float64  `json:"aet_seconds,omitempty"` // 0 when ground truth skipped
	PETEPercent *float64 `json:"pete_percent,omitempty"`
	Phases      int      `json:"phases"`
	Relevant    int      `json:"relevant"`
	Degraded    bool     `json:"degraded,omitempty"`

	Checks []Check `json:"checks,omitempty"`

	// WallMS is the case's wall clock, zeroed by Canonical
	// (non-deterministic).
	WallMS int64 `json:"wall_ms"`
}

// Failures lists the case's violated checks.
func (r *CaseResult) Failures() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// Doc is the campaign's JSON results document.
type Doc struct {
	Scenarios int          `json:"scenarios"`
	Cases     []CaseResult `json:"cases"`
	Passed    int          `json:"passed"`
	Failed    int          `json:"failed"`
	// WallMS is the whole campaign's wall clock, zeroed by Canonical.
	WallMS int64 `json:"wall_ms"`
}

// Canonical returns a deep copy with every wall-clock field zeroed:
// two runs of the same campaign agree byte-for-byte on the canonical
// document (the runner is deterministic; only timing is not).
func (d *Doc) Canonical() *Doc {
	out := *d
	out.WallMS = 0
	out.Cases = make([]CaseResult, len(d.Cases))
	copy(out.Cases, d.Cases)
	for i := range out.Cases {
		out.Cases[i].WallMS = 0
	}
	return &out
}

// Run executes every case of every scenario on a pool of GOMAXPROCS
// workers with per-case timeouts and panic isolation. The returned
// document lists cases in deterministic matrix order (scenario file
// order × targets × seeds) regardless of worker scheduling. The error
// is non-nil only for campaign-level problems (no scenarios); assertion
// failures are reported in the document, not as an error.
func Run(scenarios []*Scenario, opts Options) (*Doc, error) {
	return run(scenarios, opts, runtime.GOMAXPROCS(0))
}

// run is Run on a pool of the given size; tests vary it to show the
// document does not depend on it.
func run(scenarios []*Scenario, opts Options, workers int) (*Doc, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("scenario: campaign has no scenarios")
	}
	var cases []Case
	for _, s := range scenarios {
		cases = append(cases, s.Cases()...)
	}
	if workers > len(cases) {
		workers = len(cases)
	}
	o := opts.Observer
	if reg := o.Reg(); reg != nil {
		reg.Gauge("scenario.workers").Set(float64(workers))
		reg.Counter("scenario.cases_total").Add(int64(len(cases)))
	}

	start := time.Now()
	results := make([]CaseResult, len(cases))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cases) {
					return
				}
				results[i] = runCase(cases[i], opts)
				if opts.Log != nil {
					r := &results[i]
					opts.Log("%-6s %s (%.1fs)", r.Status, r.ID,
						float64(r.WallMS)/1e3)
				}
			}
		}()
	}
	wg.Wait()

	doc := &Doc{
		Scenarios: len(scenarios),
		Cases:     results,
		WallMS:    time.Since(start).Milliseconds(),
	}
	for i := range results {
		if results[i].Status == StatusPass {
			doc.Passed++
		} else {
			doc.Failed++
		}
	}
	if reg := o.Reg(); reg != nil {
		reg.Counter("scenario.cases_passed").Add(int64(doc.Passed))
		reg.Counter("scenario.cases_failed").Add(int64(doc.Failed))
	}
	return doc, nil
}

// runCase evaluates one case under its wall budget, isolating panics.
// The evaluation runs on its own goroutine; on timeout that goroutine
// is abandoned (it holds no locks shared with the runner) and the case
// reports StatusTimeout.
func runCase(c Case, opts Options) CaseResult {
	timeout := c.Scenario.Timeout
	if timeout == 0 {
		timeout = opts.Timeout
	}
	if timeout == 0 {
		timeout = defaultTimeout
	}
	res := newCaseResult(c)
	o := opts.Observer
	sp := o.StartSpan("scenario.case")
	defer sp.End()

	done := make(chan CaseResult, 1)
	// Capture the evaluator before spawning: a timed-out case's
	// goroutine is abandoned, and it must not read the package
	// variable after a test has restored it.
	eval := evalCaseFn
	go func() {
		defer func() {
			if p := recover(); p != nil {
				r := newCaseResult(c)
				r.Status = StatusPanic
				r.Error = fmt.Sprintf("panic: %v\n%s", p, debug.Stack())
				done <- r
			}
		}()
		done <- eval(c, o)
	}()
	start := time.Now()
	select {
	case r := <-done:
		res = r
	case <-time.After(timeout):
		res.Status = StatusTimeout
		res.Error = fmt.Sprintf("case exceeded its %v wall budget", timeout)
	}
	res.WallMS = time.Since(start).Milliseconds()
	sp.SetCounter("checks", int64(len(res.Checks)))
	if reg := o.Reg(); reg != nil {
		reg.Counter("scenario.assertions_checked").Add(int64(len(res.Checks)))
		reg.Counter("scenario.assertions_failed").Add(int64(len(res.Failures())))
	}
	return res
}

func newCaseResult(c Case) CaseResult {
	r := CaseResult{
		ID:       c.ID(),
		Scenario: c.Scenario.Name,
		File:     c.Scenario.File,
		App:      c.Scenario.App.Name,
		Ranks:    c.Scenario.App.Ranks,
		Base:     c.Scenario.Base.Label(),
		Target:   c.Target.Label(),
		Status:   StatusError,
	}
	if c.Scenario.Faults != nil {
		seed := c.Seed
		r.Seed = &seed
	}
	return r
}

// execute runs the case's prediction pipeline once. A nil-faults run
// with skipAET true is also the recovery invariant's reference.
func (c Case) execute(o *obs.Observer, withFaults, skipAET bool) (*predict.Outcome, error) {
	app, err := c.Scenario.App.make()
	if err != nil {
		return nil, err
	}
	base, err := c.Scenario.Base.Deployment(c.Scenario.App.Ranks)
	if err != nil {
		return nil, err
	}
	target, err := c.Target.Deployment(c.Scenario.App.Ranks)
	if err != nil {
		return nil, err
	}
	var inj *faults.Injector
	if withFaults {
		if inj, err = c.Injector(); err != nil {
			return nil, err
		}
	}
	return predict.Run(predict.Experiment{
		App: app, Base: base, Target: target,
		EventOverhead: mpi.PAS2PEventOverhead,
		SkipTargetAET: skipAET,
		Faults:        inj,
		Observer:      o,
	})
}

// evalCaseFn is the case evaluator; tests substitute it to exercise
// the runner's panic isolation and timeout paths.
var evalCaseFn = evalCase

// evalCase runs the case's pipeline and checks every configured
// assertion.
func evalCase(c Case, o *obs.Observer) CaseResult {
	res := newCaseResult(c)
	a := &c.Scenario.Assert

	// Ground truth on the target is only needed for the PETE bound;
	// every other assertion reads the prediction side.
	start := time.Now()
	out, err := c.execute(o, true, !a.HasPETEBound)
	wall := time.Since(start)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.PETSeconds = out.PET.Seconds()
	res.SETSeconds = out.SET.Seconds()
	res.Phases = out.Total
	res.Relevant = out.Relevant
	res.Degraded = out.Degraded
	if a.HasPETEBound {
		res.AETSeconds = out.AETTarget.Seconds()
		pete := out.PETEPercent
		res.PETEPercent = &pete
	}

	check := func(name string, ok bool, got, want string, detail ...string) {
		ch := Check{Assertion: name, OK: ok, Got: got, Want: want}
		if len(detail) > 0 {
			ch.Detail = detail[0]
		}
		res.Checks = append(res.Checks, ch)
	}
	if a.HasPETEBound {
		check("pete_bound", out.PETEPercent <= a.PETEBound,
			fmt.Sprintf("PETE %.2f%%", out.PETEPercent),
			fmt.Sprintf("<= %g%%", a.PETEBound))
	}
	if a.HasPhasesMin {
		check("phases_min", out.Total >= a.PhasesMin,
			fmt.Sprintf("%d phases", out.Total),
			fmt.Sprintf(">= %d", a.PhasesMin))
	}
	if a.HasPhasesMax {
		check("phases_max", out.Total <= a.PhasesMax,
			fmt.Sprintf("%d phases", out.Total),
			fmt.Sprintf("<= %d", a.PhasesMax))
	}
	if a.HasRelevantMin {
		check("relevant_min", out.Relevant >= a.RelevantMin,
			fmt.Sprintf("%d relevant", out.Relevant),
			fmt.Sprintf(">= %d", a.RelevantMin))
	}
	if a.HasCoverageMin {
		cov := coverage(out.Table)
		check("coverage_min", cov >= a.CoverageMin,
			fmt.Sprintf("coverage %.3f", cov),
			fmt.Sprintf(">= %g", a.CoverageMin))
	}
	if a.RecoveryInvariant {
		checkRecovery(c, o, out, check)
	}
	if a.Determinism {
		checkDeterminism(c, o, out, a, check)
	}
	if a.MaxWall > 0 {
		check("max_wall", wall <= a.MaxWall,
			fmt.Sprintf("%.2fs", wall.Seconds()),
			fmt.Sprintf("<= %v", a.MaxWall))
	}

	res.Status = StatusPass
	if len(res.Failures()) > 0 {
		res.Status = StatusFail
	}
	return res
}

// coverage is the relevant phases' Eq. 1 mass as a fraction of the
// base AET: Σ(PhaseETᵢ·Wᵢ over relevant rows) / BaseAET.
func coverage(tb *phase.Table) float64 {
	if tb == nil || tb.BaseAET <= 0 {
		return 0
	}
	var mass float64
	for _, r := range tb.RelevantRows() {
		mass += r.PhaseET.Seconds() * float64(r.Weight)
	}
	return mass / tb.BaseAET.Seconds()
}

// checkRecovery verifies the chaos recovery property as a campaign
// assertion: when every injected fault recovered, the faulted
// pipeline's phase table must match a fault-free reference run's —
// identical row shape, and a matching PET. The PET comparison is
// bit-identical only for schedules with no physical perturbation
// (crash-only: restart costs land in SET, never in PET) and tables
// without an ETScale correction; message loss/dup/delay and compute
// jitter are live during the signature's own execution here (the
// whole pipeline runs under injection, unlike the root chaos property
// test which faults the traced run only), so they legitimately wobble
// the physically measured phase times and the PET must then stay
// within the envelope instead. If the schedule left unrecovered
// faults the invariant does not apply and the check passes vacuously,
// saying so.
func checkRecovery(c Case, o *obs.Observer, faulted *predict.Outcome,
	check func(name string, ok bool, got, want string, detail ...string)) {
	const name = "recovery_invariant"
	if faulted.Faults.Unrecovered > 0 {
		check(name, true, "not applicable", "full recovery",
			fmt.Sprintf("vacuous: %d unrecovered faults (schedule did not fully recover)", faulted.Faults.Unrecovered))
		return
	}
	if faulted.Faults.Injected == 0 && faulted.Faults.ClockPerturbations == 0 {
		check(name, true, "not applicable", "full recovery",
			"vacuous: fault schedule injected nothing")
		return
	}
	ref, err := c.execute(o, false, true)
	if err != nil {
		check(name, false, "reference run failed", "full recovery matches fault-free", err.Error())
		return
	}
	if !sameShape(faulted.Table, ref.Table) {
		check(name, false,
			fmt.Sprintf("phase table %s", shapeString(faulted.Table)),
			fmt.Sprintf("fault-free shape %s", shapeString(ref.Table)))
		return
	}
	cfg, _ := faults.ParseConfig(c.Scenario.Faults.Spec)
	physical := cfg.LossRate > 0 || cfg.DupRate > 0 || cfg.DelayRate > 0 ||
		cfg.ComputeJitter > 0
	if !physical && scaledRows(faulted.Table)+scaledRows(ref.Table) == 0 {
		check(name, faulted.PET == ref.PET,
			fmt.Sprintf("PET %v", faulted.PET),
			fmt.Sprintf("== fault-free PET %v (crash-only schedule)", ref.PET))
		return
	}
	drift := 0.0 // percent of the fault-free PET
	if ref.PET != 0 {
		drift = predict.PETE(faulted.PET, ref.PET)
	}
	check(name, drift <= 100*recoveryEnvelope,
		fmt.Sprintf("PET drift %.2f%%", drift),
		fmt.Sprintf("<= %.0f%% of fault-free PET %v (physical perturbation active)",
			100*recoveryEnvelope, ref.PET))
}

// checkDeterminism re-runs the identical case (fresh injector, same
// seed) and requires the outcome predict.Outcome.Diff compares: PET,
// SET, phase counts, degradation and the fault report.
func checkDeterminism(c Case, o *obs.Observer, first *predict.Outcome, a *Assertions,
	check func(name string, ok bool, got, want string, detail ...string)) {
	const name = "determinism"
	second, err := c.execute(o, true, !a.HasPETEBound)
	if err != nil {
		check(name, false, "rerun failed", "identical rerun", err.Error())
		return
	}
	if diffs := first.Diff(second); len(diffs) > 0 {
		check(name, false, fmt.Sprintf("rerun diverged: %v", diffs), "identical rerun")
		return
	}
	check(name, true, "rerun identical", "identical rerun")
}

// sameShape compares two phase tables' logical content: row count and
// per-row (PhaseID, Weight, Relevant).
func sameShape(a, b *phase.Table) bool {
	if a == nil || b == nil || len(a.Rows) != len(b.Rows) || a.TotalPhases != b.TotalPhases {
		return false
	}
	for i := range a.Rows {
		if a.Rows[i].PhaseID != b.Rows[i].PhaseID ||
			a.Rows[i].Weight != b.Rows[i].Weight ||
			a.Rows[i].Relevant != b.Rows[i].Relevant {
			return false
		}
	}
	return true
}

func shapeString(t *phase.Table) string {
	if t == nil {
		return "<nil>"
	}
	var rows []string
	for _, r := range t.Rows {
		rows = append(rows, fmt.Sprintf("%d:w%d", r.PhaseID, r.Weight))
	}
	return fmt.Sprintf("%v", rows)
}

// scaledRows counts rows carrying a pair-bias ETScale correction.
func scaledRows(t *phase.Table) int {
	n := 0
	for _, r := range t.Rows {
		if r.ETScale != 0 && r.ETScale != 1 {
			n++
		}
	}
	return n
}
