// Chaos property tests: the fault-injection layer must never change
// what PAS2P *measures*, only when things happen. A fully-recovering
// fault schedule perturbs physical timings but leaves the logical
// structure — and therefore the phase set, the signature, and the
// prediction — untouched; an unrecoverable schedule must degrade
// gracefully and deterministically.
package pas2p_test

import (
	"fmt"
	"reflect"
	"testing"

	"pas2p"
	"pas2p/internal/mpi"
	"pas2p/internal/vtime"
)

// chaosPipeline traces app on base (optionally under fault injection),
// analyses the trace, and returns the analysis, phase table, and the
// PET of executing the resulting signature on target.
func chaosPipeline(t *testing.T, app pas2p.App, base, target *pas2p.Deployment,
	inj *pas2p.FaultInjector) (*pas2p.PhaseAnalysis, *pas2p.PhaseTable, vtime.Duration) {
	t.Helper()
	r, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: base, Trace: true, Faults: inj})
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if err := r.Trace.Validate(); err != nil {
		t.Fatalf("faulted trace invalid: %v", err)
	}
	an, tb, err := pas2p.Analyze(r.Trace, pas2p.DefaultPhaseConfig(), 1)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	sig, _, err := pas2p.BuildSignature(app, tb, base, pas2p.DefaultSignatureOptions())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, err := sig.Execute(target)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return an, tb, res.PET
}

// scaledRows counts table rows carrying a pair-bias correction.
func scaledRows(tb *pas2p.PhaseTable) int {
	n := 0
	for _, r := range tb.Rows {
		if r.ETScale != 0 && r.ETScale != 1 {
			n++
		}
	}
	return n
}

// phaseShape reduces an analysis to its logical content: per-phase
// occurrence counts keyed by phase ID. Fault delays move physical
// timestamps, so durations may differ — the *structure* may not.
func phaseShape(an *pas2p.PhaseAnalysis) map[int]int {
	shape := make(map[int]int, len(an.Phases))
	for _, p := range an.Phases {
		shape[p.ID] = len(p.Occurrences)
	}
	return shape
}

// TestChaosRecoveryInvariant is the tentpole property: for a corpus of
// seeded random apps, a traced run under a fully-recovering message
// fault schedule (loss bounded by retransmission, duplication, delay)
// yields the identical phase set and — for tables without a pair-bias
// correction — a bit-identical prediction: checkpoints are logical
// positions, so the faults can only move physical clocks, never the
// logical signature. Tables that do carry an ETScale correction embed
// one physically measured ratio, whose jitter-induced wobble must stay
// inside a tight envelope.
func TestChaosRecoveryInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is slow")
	}
	clusterA, clusterB := pas2p.ClusterA(), pas2p.ClusterB()
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			procs := []int{4, 8}[seed%2]
			app := genApp(seed, procs)
			dA, err := pas2p.NewDeployment(clusterA, procs, pas2p.MapBlock)
			if err != nil {
				t.Fatal(err)
			}
			dB, err := pas2p.NewDeployment(clusterB, procs, pas2p.MapBlock)
			if err != nil {
				t.Fatal(err)
			}
			an0, tb0, pet0 := chaosPipeline(t, app, dA, dB, nil)

			// Jitter guarantees injection even for apps whose segments
			// are all collectives (no point-to-point traffic to lose).
			inj, err := pas2p.NewFaultInjector(pas2p.FaultConfig{
				Seed: seed, LossRate: 0.05, DupRate: 0.03, DelayRate: 0.10,
				ComputeJitter: 0.01,
			})
			if err != nil {
				t.Fatal(err)
			}
			an1, tb1, pet1 := chaosPipeline(t, app, dA, dB, inj)

			rep := inj.Report()
			if rep.Injected == 0 && rep.ClockPerturbations == 0 {
				t.Fatal("fault schedule injected nothing; property vacuous")
			}
			if rep.Unrecovered != 0 {
				t.Fatalf("message faults must all recover, %d did not", rep.Unrecovered)
			}
			if !reflect.DeepEqual(phaseShape(an0), phaseShape(an1)) {
				t.Fatalf("fault schedule changed the phase set:\nfault-free: %v\nfaulted:    %v",
					phaseShape(an0), phaseShape(an1))
			}
			rel0, rel1 := tb0.RelevantRows(), tb1.RelevantRows()
			if len(rel0) != len(rel1) {
				t.Fatalf("relevant phase count changed: %d vs %d", len(rel0), len(rel1))
			}
			for i := range rel0 {
				if rel0[i].PhaseID != rel1[i].PhaseID || rel0[i].Weight != rel1[i].Weight {
					t.Fatalf("relevant row %d changed: (%d,w%d) vs (%d,w%d)", i,
						rel0[i].PhaseID, rel0[i].Weight, rel1[i].PhaseID, rel1[i].Weight)
				}
			}
			// Tables without a pair-bias correction predict from purely
			// logical signature content, so the prediction must be
			// bit-identical. A recorded ETScale is a *physically*
			// measured ratio (mean occurrence duration over pair cut on
			// the base run), so compute jitter legitimately wobbles it;
			// the prediction must then stay within the jitter envelope
			// rather than match exactly.
			if scaledRows(tb0)+scaledRows(tb1) == 0 {
				if pet1 != pet0 {
					t.Fatalf("recovering faults changed the prediction: PET %v vs fault-free %v",
						pet1, pet0)
				}
			} else {
				diff := absP(pet1.Seconds()-pet0.Seconds()) / pet0.Seconds()
				if diff > 0.05 {
					t.Fatalf("corrected prediction drifted %.2f%% under recovered faults: PET %v vs fault-free %v",
						100*diff, pet1, pet0)
				}
			}
		})
	}
}

// chaosAppCases hold registered apps to the recovery invariant with
// the whole prediction — traced run, signature build and execution —
// under injection, from cluster A to B at 8 ranks.
var chaosAppCases = []struct {
	app, spec string
	seeds     []int64
	phases    int
}{
	// Restart costs land in SET, never in PET.
	{"pop", "crash=0.3,attempts=10", []int64{3, 4}, 8},
	{"cg", "loss=0.05,dup=0.03,delay=0.1,jitter=0.01", []int64{1, 2}, 7},
}

// TestChaosRecoveryApps: a fully recovered schedule leaves the
// prediction's phase table in the fault-free shape, and its PET
// bit-identical when nothing physical was perturbed and no row carries
// an ETScale correction, else within 5%: message faults and jitter are
// live during the signature's own execution too, so they wobble its
// measured phase times. A rerun under the same seed reproduces the
// outcome.
func TestChaosRecoveryApps(t *testing.T) {
	for _, tc := range chaosAppCases {
		for _, seed := range tc.seeds {
			tc, seed := tc, seed
			t.Run(fmt.Sprintf("%s-seed%d", tc.app, seed), func(t *testing.T) {
				const procs = 8
				app, err := pas2p.MakeApp(tc.app, procs, "")
				if err != nil {
					t.Fatal(err)
				}
				dA, err := pas2p.NewDeployment(pas2p.ClusterA(), procs, pas2p.MapBlock)
				if err != nil {
					t.Fatal(err)
				}
				dB, err := pas2p.NewDeployment(pas2p.ClusterB(), procs, pas2p.MapBlock)
				if err != nil {
					t.Fatal(err)
				}
				predict := func(inj *pas2p.FaultInjector) *pas2p.Outcome {
					out, err := pas2p.Predict(pas2p.Experiment{
						App: app, Base: dA, Target: dB,
						EventOverhead: mpi.PAS2PEventOverhead,
						SkipTargetAET: true,
						Faults:        inj,
					})
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				faulted := func() *pas2p.Outcome {
					inj, err := pas2p.ParseFaultSpec(seed, tc.spec)
					if err != nil {
						t.Fatal(err)
					}
					return predict(inj)
				}
				out, ref := faulted(), predict(nil)

				rep := out.Faults
				if rep.Injected == 0 && rep.ClockPerturbations == 0 {
					t.Fatal("fault schedule injected nothing; property vacuous")
				}
				if rep.Unrecovered != 0 {
					t.Fatalf("faults must all recover, %d did not", rep.Unrecovered)
				}
				if out.Total != tc.phases {
					t.Errorf("%d phases, want %d", out.Total, tc.phases)
				}
				if got, want := tableShape(out.Table), tableShape(ref.Table); got != want {
					t.Fatalf("fault schedule changed the phase table:\nfault-free: %s\nfaulted:    %s", want, got)
				}
				physical := rep.MsgLost+rep.MsgDuplicated+rep.MsgDelayed+
					rep.ClockPerturbations+rep.ProcsSkewed > 0
				if !physical && scaledRows(out.Table)+scaledRows(ref.Table) == 0 {
					if out.PET != ref.PET {
						t.Errorf("recovered crashes changed the prediction: PET %v vs fault-free %v", out.PET, ref.PET)
					}
				} else if drift := absP(out.PET.Seconds()-ref.PET.Seconds()) / ref.PET.Seconds(); drift > 0.05 {
					t.Errorf("prediction drifted %.2f%% under recovered faults: PET %v vs fault-free %v",
						100*drift, out.PET, ref.PET)
				}
				if diffs := out.Diff(faulted()); len(diffs) > 0 {
					t.Errorf("same-seed rerun diverged: %v", diffs)
				}
			})
		}
	}
}

// tableShape renders a phase table's logical content: the phase count
// and each row's phase ID, weight and relevance.
func tableShape(tb *pas2p.PhaseTable) string {
	s := fmt.Sprintf("%d phases:", tb.TotalPhases)
	for _, r := range tb.Rows {
		s += fmt.Sprintf(" %d:w%d:%v", r.PhaseID, r.Weight, r.Relevant)
	}
	return s
}

// TestChaosSeedDeterminism: the same (seed, config) must reproduce the
// identical fault schedule, recovery trace, and prediction — including
// crash/restart faults during signature execution — across independent
// injectors.
func TestChaosSeedDeterminism(t *testing.T) {
	app := genApp(5, 8)
	dA, err := pas2p.NewDeployment(pas2p.ClusterA(), 8, pas2p.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	dB, err := pas2p.NewDeployment(pas2p.ClusterB(), 8, pas2p.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pas2p.FaultConfig{
		Seed: 42, LossRate: 0.05, DupRate: 0.02, DelayRate: 0.08,
		CrashRate: 0.3, ComputeJitter: 0.01,
	}
	run := func() (*pas2p.Outcome, pas2p.FaultReport) {
		inj, err := pas2p.NewFaultInjector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := pas2p.Predict(pas2p.Experiment{
			App: app, Base: dA, Target: dB,
			SkipTargetAET: true,
			Faults:        inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, inj.Report()
	}
	out1, rep1 := run()
	out2, rep2 := run()
	if rep1.Injected == 0 {
		t.Fatal("schedule injected nothing")
	}
	if rep1 != rep2 {
		t.Fatalf("fault schedule not reproducible:\n%+v\n%+v", rep1, rep2)
	}
	if out1.PET != out2.PET || out1.SET != out2.SET || out1.Degraded != out2.Degraded {
		t.Fatalf("outcome not reproducible: PET %v/%v SET %v/%v degraded %v/%v",
			out1.PET, out2.PET, out1.SET, out2.SET, out1.Degraded, out2.Degraded)
	}
	if !reflect.DeepEqual(out1.LostPhases, out2.LostPhases) {
		t.Fatalf("lost phases differ: %v vs %v", out1.LostPhases, out2.LostPhases)
	}

	// A different seed must produce a different schedule (overwhelmingly
	// likely at these rates over thousands of events).
	cfg.Seed = 43
	_, rep3 := run()
	if rep3 == rep1 {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

// TestChaosGracefulDegradation: an unrecoverable crash schedule
// (certain crash, zero restart attempts) must lose every relevant
// phase, flag the outcome as degraded, and still return cleanly with
// the PET of the surviving (empty) phase set.
func TestChaosGracefulDegradation(t *testing.T) {
	app := genApp(3, 8)
	dA, err := pas2p.NewDeployment(pas2p.ClusterA(), 8, pas2p.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	dB, err := pas2p.NewDeployment(pas2p.ClusterB(), 8, pas2p.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := pas2p.NewFaultInjector(pas2p.FaultConfig{
		Seed: 11, CrashRate: 1, MaxRestartAttempts: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := pas2p.Predict(pas2p.Experiment{
		App: app, Base: dA, Target: dB,
		SkipTargetAET: true,
		Faults:        inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatal("certain crashes with no restart budget must degrade the prediction")
	}
	if len(out.LostPhases) == 0 {
		t.Fatal("degraded outcome reports no lost phases")
	}
	if out.PET != 0 {
		t.Fatalf("all phases lost, yet PET = %v (Eq. 1 must cover surviving phases only)", out.PET)
	}
	rep := inj.Report()
	if rep.Unrecovered == 0 || rep.Recovered != 0 {
		t.Fatalf("report inconsistent with total loss: %+v", rep)
	}
	if rep.PhasesLost != int64(len(out.LostPhases)) {
		t.Fatalf("report counts %d lost phases, outcome lists %d",
			rep.PhasesLost, len(out.LostPhases))
	}

	// A generous restart budget with the same crash rate must recover:
	// every phase survives, at a higher predicted cost.
	injR, err := pas2p.NewFaultInjector(pas2p.FaultConfig{
		Seed: 11, CrashRate: 0.5, MaxRestartAttempts: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	outR, err := pas2p.Predict(pas2p.Experiment{
		App: app, Base: dA, Target: dB,
		SkipTargetAET: true,
		Faults:        injR,
	})
	if err != nil {
		t.Fatal(err)
	}
	if outR.Degraded {
		t.Fatalf("recovered crash schedule still degraded (lost %v)", outR.LostPhases)
	}
	base, err := pas2p.Predict(pas2p.Experiment{
		App: app, Base: dA, Target: dB, SkipTargetAET: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Recovery costs are charged at checkpoint restore, before phase
	// measurement starts: they inflate the signature's own execution
	// time (SET) but must leave the prediction (PET) untouched.
	if outR.PET != base.PET {
		t.Fatalf("recovered crashes changed the prediction: PET %v vs fault-free %v",
			outR.PET, base.PET)
	}
	if repR := injR.Report(); repR.CrashFailures > 0 && outR.SET <= base.SET {
		t.Fatalf("restart retries are free: faulted SET %v <= fault-free %v", outR.SET, base.SET)
	}
}
