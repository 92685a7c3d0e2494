// Package predict drives the paper's experimental methodology
// (Fig. 12): instrument the application on a base machine, analyse the
// trace into phases, construct the signature, execute it on a target
// machine to obtain the predicted execution time (PET), run the full
// application on the target for the ground-truth AET (on the base
// machine itself, the base run is that run), and report the
// prediction error (PETE) together with every tool-performance metric
// of Tables 8 and 9 (tracefile size, analysis time, construction time,
// signature execution time, instrumentation overhead). Sign is stage A
// on its own — traced run, phase analysis, signature construction — for
// every front door that builds a signature without predicting.
//
// It also implements the partial-execution baseline of Yang et al.
// [17], which the ablation benchmarks compare PAS2P against.
package predict

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"pas2p/internal/faults"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/obs"
	"pas2p/internal/phase"
	"pas2p/internal/signature"
	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

// Experiment is one base-to-target validation run.
type Experiment struct {
	App    mpi.App
	Base   *machine.Deployment
	Target *machine.Deployment
	// EventOverhead is the per-event instrumentation cost charged
	// during the traced run (Table 9's AETPAS2P).
	EventOverhead vtime.Duration
	// PhaseConfig defaults to phase.DefaultConfig() when zero.
	PhaseConfig phase.Config
	// Signature defaults to signature.DefaultOptions() when zero.
	Signature signature.Options
	// WarmOccurrence designates which phase occurrence is
	// checkpointed (default 1, the second).
	WarmOccurrence int
	// SkipTargetAET skips the ground truth on the target, simulated or
	// taken from the base run: AETTarget, PETEPercent and
	// SETvsAETPercent are then left zero. Used when only SET/PET matter.
	SkipTargetAET bool
	// Observer, when non-nil, records a span per pipeline stage plus
	// sim counters, and — when it carries a timeline — rank tracks for
	// the traced base run (with phase-boundary instants added after
	// extraction) and the signature execution. Auxiliary runs (base,
	// construction, target ground truth) report metrics only. A target
	// equal to the base is not simulated again, so it adds no
	// predict.target_run span and no sim.runs count.
	Observer *obs.Observer
	// Faults, when non-nil, injects deterministic faults into the
	// instrumented base run and the signature pipeline (construction and
	// execution): message loss/duplication/delay, restart crashes with
	// bounded retries, and clock jitter. The uninstrumented base run and
	// the target ground-truth run stay fault-free — they are the
	// references the faulted prediction is judged against. Unrecovered
	// crashes degrade the prediction to the surviving phases (Degraded /
	// LostPhases in the Outcome).
	Faults *faults.Injector
}

// Outcome carries everything the paper's tables report.
type Outcome struct {
	// Analysis-side metrics (base machine).
	AETBase   vtime.Duration // uninstrumented base run
	AETPAS2P  vtime.Duration // instrumented base run
	TFSize    int64          // tracefile size in bytes
	TFAT      time.Duration  // wall-clock tracefile analysis time (Signed.TFAT)
	Total     int            // total phases found
	Relevant  int            // relevant phases
	SCT       vtime.Duration // signature construction time
	Table     *phase.Table
	Signature *signature.Signature

	// Prediction-side metrics (target machine).
	SET vtime.Duration
	PET vtime.Duration
	// AETTarget is the application's execution time on the target: the
	// base run's AETBase when the target equals the base deployment
	// (machine.Deployment.Equal), a full run on the target otherwise.
	AETTarget vtime.Duration
	Phases    []signature.PhaseMeasurement

	// Derived report columns.
	PETEPercent     float64 // 100·|PET-AET|/AET
	SETvsAETPercent float64 // 100·SET/AET
	OverheadFactor  float64 // Table 9: (AETPAS2P+TFAT+SCT+SET)/AET

	// Degradation under injected faults: phases abandoned after
	// unrecovered restart crashes, missing from PET.
	Degraded   bool
	LostPhases []int
	// Faults reports what the experiment's injector did (zero without
	// one).
	Faults faults.Report
}

// Signed is stage A's product: the instrumented base run, the phase
// table analysed from its recording, and the signature built from that
// table. The recording was drained as the run wrote it: its Meta
// stands, but it holds no events.
type Signed struct {
	Traced *mpi.RunResult
	Table  *phase.Table
	Build  *signature.BuildResult
	// TFAT is the wall-clock time of the trace analysis (Table 9):
	// stage A's own tool time, logical ordering, phase extraction and
	// the phase table. The analysis reads the recording while the
	// traced run writes it, so the time it spent waiting for the run
	// to publish events is the run's, and is left out.
	TFAT time.Duration
}

// withDefaults fills the experiment's zero-valued configuration and
// hands its observer to the analysis and signature stages.
func (e *Experiment) withDefaults() {
	if e.PhaseConfig == (phase.Config{}) {
		e.PhaseConfig = phase.DefaultConfig()
	}
	if e.Signature == (signature.Options{}) {
		e.Signature = signature.DefaultOptions()
	}
	e.PhaseConfig.Observer = e.Observer
	e.Signature.Observer = e.Observer
	if e.WarmOccurrence == 0 {
		e.WarmOccurrence = 1
	}
}

// Sign runs PAS2P stage A on the base machine: the instrumented run
// (charged EventOverhead per event and perturbed by Faults), logical
// ordering and phase extraction into the phase table, and signature
// construction under the Signature options (whose own Faults, if any,
// perturb construction). The analysis runs while the instrumented run
// records. ctx is checked before the run, through the analysis, and
// before returning; a run already started is waited for.
func Sign(ctx context.Context, e Experiment) (*Signed, error) {
	if e.App.Body == nil {
		return nil, fmt.Errorf("predict: experiment has no application")
	}
	if e.Base == nil {
		return nil, fmt.Errorf("predict: experiment needs a base deployment")
	}
	e.withDefaults()
	o := e.Observer

	// The traced run's timeline process is pre-allocated so the phase
	// boundaries — known only after extraction — land on its tracks.
	tracedPID := 0
	if tl := o.TL(); tl != nil {
		tracedPID = tl.NewProcess(fmt.Sprintf("trace:%s (%d ranks)", e.App.Name, e.App.Procs))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := o.StartSpan("predict.traced_run")
	run, err := mpi.Start(e.App, mpi.RunConfig{
		Deployment: e.Base, Trace: true, EventOverhead: e.EventOverhead,
		Observer: o, TimelinePID: tracedPID,
		Faults: e.Faults,
	})
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("predict: instrumented run: %w", err)
	}

	// Logical ordering, phase extraction and the phase table record the
	// analyze.order, phase.extract and analyze.table spans through
	// PhaseConfig.Observer, inside predict.traced_run. They read the
	// recording on this goroutine while the run writes it, each chunk
	// once, and hand every chunk back for the run to fill again: no
	// trace is assembled, and the run holds only what the analysis has
	// not read yet. TFAT is the analysis time less its waits for the
	// run. A failed analysis stops reading, and the run still ends
	// before Sign returns; the run's own failure is the one reported.
	src := run.Recording.Drain()
	t0 := time.Now()
	res, aerr := phase.Analyze(ctx, src, phase.StreamConfig{Config: e.PhaseConfig}, e.WarmOccurrence, nil)
	tfat := time.Since(t0) - src.Waited()
	if aerr != nil {
		src.Stop()
	}
	traced, err := run.Wait()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("predict: instrumented run: %w", err)
	}
	if aerr != nil {
		return nil, fmt.Errorf("predict: analysis: %w", aerr)
	}
	an, tb := res.Analysis, res.Table
	if tracedPID != 0 {
		MarkPhases(o.TL(), tracedPID, an)
	}

	// Construction records its own "signature.build" span.
	br, err := signature.Build(e.App, tb, e.Base, e.Signature)
	if err != nil {
		return nil, fmt.Errorf("predict: build: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Signed{Traced: traced, Table: tb, Build: br, TFAT: tfat}, nil
}

// Run executes the full Fig. 12 loop: an uninstrumented base run, stage
// A (Sign), the signature's execution on the target, and the target
// ground-truth run, which on a target equal to the base is the base run
// itself.
func Run(e Experiment) (*Outcome, error) {
	if e.App.Body == nil {
		return nil, fmt.Errorf("predict: experiment has no application")
	}
	if e.Base == nil || e.Target == nil {
		return nil, fmt.Errorf("predict: experiment needs base and target deployments")
	}
	e.withDefaults()
	o := e.Observer
	// Set after the zero-value check above so a default Options still
	// compares equal to signature.Options{} when no faults are injected.
	if e.Faults != nil {
		e.Signature.Faults = e.Faults
		e.Faults.SetObserver(o)
	}
	out := &Outcome{}

	// 1. Uninstrumented base run: the AET reference for relevance and
	//    overhead accounting.
	sp := o.StartSpan("predict.base_run")
	plain, err := mpi.Run(e.App, mpi.RunConfig{Deployment: e.Base, Observer: o.MetricsOnly()})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("predict: base run: %w", err)
	}
	out.AETBase = plain.Elapsed

	// 2-4. Instrumented run, analysis and signature construction.
	signed, err := Sign(context.Background(), e)
	if err != nil {
		return nil, err
	}
	out.AETPAS2P = signed.Traced.Elapsed
	out.TFSize = trace.EncodedSize(signed.Traced.Recording.Meta())
	out.TFAT = signed.TFAT
	out.Table = signed.Table
	out.Total = signed.Table.TotalPhases
	out.Relevant = len(signed.Table.RelevantRows())
	out.SCT = signed.Build.SCT
	out.Signature = signed.Build.Signature

	// 5. Signature execution on the target machine (records its own
	//    "signature.execute" span, with rank tracks when tracing).
	res, err := out.Signature.Execute(e.Target)
	if err != nil {
		return nil, fmt.Errorf("predict: execute: %w", err)
	}
	out.SET = res.SET
	out.PET = res.PET
	out.Phases = res.Phases
	out.Degraded = res.Degraded
	out.LostPhases = res.LostPhases

	// 6. Ground truth on the target. The simulator is deterministic and
	//    the target run is configured like the base run, so on a target
	//    equal to the base the base run already is the target's run.
	if !e.SkipTargetAET {
		out.AETTarget = out.AETBase
		if !e.Target.Equal(e.Base) {
			sp = o.StartSpan("predict.target_run")
			full, err := mpi.Run(e.App, mpi.RunConfig{Deployment: e.Target, Observer: o.MetricsOnly()})
			sp.End()
			if err != nil {
				return nil, fmt.Errorf("predict: target run: %w", err)
			}
			out.AETTarget = full.Elapsed
		}
		out.PETEPercent = PETE(out.PET, out.AETTarget)
		out.SETvsAETPercent = 100 * out.SET.Seconds() / out.AETTarget.Seconds()
	}

	// Table 9's overhead factor over the base AET. The paper's TFAT is
	// tool wall time; ours is real seconds against virtual app seconds,
	// and is typically negligible at these scales.
	out.OverheadFactor = (out.AETPAS2P.Seconds() + out.TFAT.Seconds() +
		out.SCT.Seconds() + out.SET.Seconds()) / out.AETBase.Seconds()
	e.Faults.Publish(o.Reg())
	out.Faults = e.Faults.Report()
	return out, nil
}

// PETE is the prediction error 100·|PET−AET|/AET in percent.
func PETE(pet, aet vtime.Duration) float64 {
	return 100 * math.Abs(pet.Seconds()-aet.Seconds()) / aet.Seconds()
}

// Diff lists how a rerun's outcome differs from this one in what a
// seeded run must reproduce: PET, SET, phase counts, degradation and
// the fault report. It is empty when the rerun is identical.
func (o *Outcome) Diff(rerun *Outcome) []string {
	var diffs []string
	if o.PET != rerun.PET {
		diffs = append(diffs, fmt.Sprintf("PET %v vs %v", o.PET, rerun.PET))
	}
	if o.SET != rerun.SET {
		diffs = append(diffs, fmt.Sprintf("SET %v vs %v", o.SET, rerun.SET))
	}
	if o.Total != rerun.Total || o.Relevant != rerun.Relevant {
		diffs = append(diffs, fmt.Sprintf("phases %d/%d vs %d/%d",
			o.Total, o.Relevant, rerun.Total, rerun.Relevant))
	}
	if o.Degraded != rerun.Degraded || !slices.Equal(o.LostPhases, rerun.LostPhases) {
		diffs = append(diffs, fmt.Sprintf("degradation %v%v vs %v%v",
			o.Degraded, o.LostPhases, rerun.Degraded, rerun.LostPhases))
	}
	if o.Faults != rerun.Faults {
		diffs = append(diffs, fmt.Sprintf("faults %+v vs %+v", o.Faults, rerun.Faults))
	}
	return diffs
}

// MarkPhases marks each phase occurrence's start on a timeline track.
// Occurrence durations tile the run (they are deltas of the physical
// completion cuts), so the running sum over occurrences in StartTick
// order is each occurrence's start on the traced run's virtual clock.
func MarkPhases(tl *obs.Timeline, pid int, an *phase.Analysis) {
	type occ struct {
		id  int
		dur vtime.Duration
		at  int
	}
	var occs []occ
	for _, p := range an.Phases {
		for _, oc := range p.Occurrences {
			occs = append(occs, occ{id: p.ID, dur: oc.Dur, at: oc.StartTick})
		}
	}
	sort.Slice(occs, func(i, j int) bool { return occs[i].at < occs[j].at })
	var t vtime.Duration
	for _, oc := range occs {
		tl.Instant(pid, 0, fmt.Sprintf("phase %d", oc.id), float64(t)/1e3)
		t += oc.dur
	}
}
