// Benchmarks regenerating the paper's tables and the ablation studies
// for the design choices DESIGN.md calls out. Table benchmarks run the
// full pipeline at half the paper's process counts (ProcScale 2) so a
// `go test -bench=.` sweep stays tractable; cmd/pas2p-bench regenerates
// the tables at full scale. Custom metrics carry the quantities the
// paper reports: PETE% (prediction error), SET% (signature length as a
// fraction of the application), and phase counts.
package pas2p_test

import (
	"fmt"
	"io"
	"testing"

	"pas2p"
	"pas2p/internal/apps"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/predict"
	"pas2p/internal/report"
	"pas2p/internal/signature"
	"pas2p/internal/simpoint"
)

func benchOpts() report.Options {
	return report.Options{ProcScale: 2}
}

// BenchmarkTable3 regenerates Table 3: the Moldy analysis on cluster C
// (phases, weights, AET vs SET).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := report.Table3(io.Discard, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Total), "phases")
		b.ReportMetric(float64(res.Relevant), "relevant")
		b.ReportMetric(100*res.SETSeconds/res.AETSeconds, "SET%")
	}
}

// BenchmarkTable5 regenerates Table 5: predictions for cluster B from
// signatures built on cluster A (Table 4 workloads).
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := report.Table5(io.Discard, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportPredMetrics(b, rows)
	}
}

// BenchmarkTable7 regenerates Table 7: predictions for cluster A's
// oversubscribed cores from signatures built on cluster C (Table 6
// workloads).
func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := report.Table7(io.Discard, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportPredMetrics(b, rows)
	}
}

func reportPredMetrics(b *testing.B, rows []report.PredRow) {
	b.Helper()
	var pete, setFrac float64
	for _, r := range rows {
		pete += r.Outcome.PETEPercent
		setFrac += r.Outcome.SETvsAETPercent
	}
	n := float64(len(rows))
	b.ReportMetric(pete/n, "PETE%")
	b.ReportMetric(setFrac/n, "SET%")
}

// BenchmarkTable8And9 regenerates the §6 tool-performance set once and
// reports both tables' headline quantities (tracefile bytes, phase
// counts, overhead factor).
func BenchmarkTable8And9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := report.RunPerf(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		report.Table8(io.Discard, rows)
		report.Table9(io.Discard, rows)
		var bytes, overhead float64
		for _, r := range rows {
			bytes += float64(r.Outcome.TFSize)
			overhead += r.Outcome.OverheadFactor
		}
		b.ReportMetric(bytes/float64(len(rows)), "TFbytes")
		b.ReportMetric(overhead/float64(len(rows)), "overheadX")
	}
}

// --- Ablations -----------------------------------------------------

func ablateDeploy(b *testing.B, cl *pas2p.Cluster, n int) *pas2p.Deployment {
	b.Helper()
	d, err := pas2p.NewDeployment(cl, n, pas2p.MapBlock)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// wildcardApp is a master/worker farm with wildcard receives and
// staggered worker loads — the §3.2 scenario: reception order is
// nondeterministic across machines and the master's replies chain each
// worker's next logical time to a different master send.
func wildcardApp(procs int) pas2p.App {
	return pas2p.App{
		Name:  "wildcard",
		Procs: procs,
		Body: func(c *pas2p.Comm) {
			for it := 0; it < 30; it++ {
				if c.Rank() == 0 {
					for i := 1; i < c.Size(); i++ {
						c.RecvN(pas2p.AnySource, 1)
					}
					for i := 1; i < c.Size(); i++ {
						c.SendN(i, 2, 512)
					}
				} else {
					// Microsecond-scale load differences reshuffle the
					// arrival order at the master across clusters.
					c.Compute(float64((16-c.Rank()+it)%8) * 1e3)
					c.SendN(0, 1, 512)
					c.RecvN(0, 2)
				}
				c.Barrier()
			}
		},
	}
}

// BenchmarkAblationOrdering compares the PAS2P ordering against the
// pure-Lamport baseline (§3.2's motivation) on the wildcard workload.
// Reported metrics: tick-table size (smaller = better cross-process
// alignment, so phases fold more readily), phase counts after
// extraction, and whether each model's tick table changes across
// clusters. Wildcard matching itself is machine-dependent — no
// ordering can undo which send a receive matched — but the PAS2P
// pinning plus receive permutation keeps the *structure* a phase
// comparison sees stable, which is what the phase counts show.
func BenchmarkAblationOrdering(b *testing.B) {
	app := wildcardApp(16)
	for i := 0; i < b.N; i++ {
		var phasesPAS2P, phasesLamport float64
		var ticksPAS2P, ticksLamport float64
		var shapes [2][2]string // [ordering][cluster] tick-table shape
		for ci, cl := range []*pas2p.Cluster{pas2p.ClusterA(), pas2p.ClusterC()} {
			traced, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: ablateDeploy(b, cl, 16), Trace: true})
			if err != nil {
				b.Fatal(err)
			}
			lp, err := pas2p.OrderLogical(traced.Trace)
			if err != nil {
				b.Fatal(err)
			}
			ll, err := pas2p.OrderLamport(traced.Trace)
			if err != nil {
				b.Fatal(err)
			}
			shapes[0][ci] = tickShape(lp)
			shapes[1][ci] = tickShape(ll)
			ticksPAS2P += float64(lp.NumTicks())
			ticksLamport += float64(ll.NumTicks())
			ap, err := pas2p.ExtractPhases(lp, pas2p.DefaultPhaseConfig())
			if err != nil {
				b.Fatal(err)
			}
			al, err := pas2p.ExtractPhases(ll, pas2p.DefaultPhaseConfig())
			if err != nil {
				b.Fatal(err)
			}
			phasesPAS2P += float64(len(ap.Phases))
			phasesLamport += float64(len(al.Phases))
		}
		b.ReportMetric(ticksPAS2P/2, "ticks/pas2p")
		b.ReportMetric(ticksLamport/2, "ticks/lamport")
		b.ReportMetric(phasesPAS2P/2, "phases/pas2p")
		b.ReportMetric(phasesLamport/2, "phases/lamport")
		b.ReportMetric(boolMetric(shapes[0][0] != shapes[0][1]), "machineDependent/pas2p")
		b.ReportMetric(boolMetric(shapes[1][0] != shapes[1][1]), "machineDependent/lamport")
	}
}

// tickShape fingerprints a tick table's structure: per tick, each
// slot's process, kind, peer, size and event number, ticks ending in
// '|'.
func tickShape(l *pas2p.Logical) string {
	var sb []byte
	for t := range l.Ticks {
		for _, s := range l.Ticks[t] {
			e := &l.Trace.Events[s.Event]
			sb = fmt.Appendf(sb, "%d:%d:%d:%d:%d ", e.Process, e.Kind, e.Peer, e.Size, e.Number)
		}
		sb = append(sb, '|')
	}
	return string(sb)
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkAblationRelevance compares signatures built from relevant
// phases only (the paper's default) against all phases: the all-phase
// signature trades a longer SET for lower residual error (§5).
func BenchmarkAblationRelevance(b *testing.B) {
	app, err := apps.Make("moldy", 16, "tip4p-short")
	if err != nil {
		b.Fatal(err)
	}
	base := ablateDeploy(b, pas2p.ClusterA(), 16)
	target := ablateDeploy(b, pas2p.ClusterB(), 16)
	for i := 0; i < b.N; i++ {
		for _, all := range []bool{false, true} {
			sig := signature.DefaultOptions()
			sig.AllPhases = all
			out, err := predict.Run(predict.Experiment{App: app, Base: base, Target: target, Signature: sig})
			if err != nil {
				b.Fatal(err)
			}
			if all {
				b.ReportMetric(out.PETEPercent, "PETE%/all")
				b.ReportMetric(out.SETvsAETPercent, "SET%/all")
			} else {
				b.ReportMetric(out.PETEPercent, "PETE%/relevant")
				b.ReportMetric(out.SETvsAETPercent, "SET%/relevant")
			}
		}
	}
}

// BenchmarkAblationSimilarity sweeps the §3.3 similarity thresholds
// around the paper's 80%/85% values on an app with compute jitter.
func BenchmarkAblationSimilarity(b *testing.B) {
	jittery := pas2p.App{
		Name:  "jittery",
		Procs: 16,
		Body: func(c *pas2p.Comm) {
			n := c.Size()
			for it := 0; it < 40; it++ {
				c.Compute(2e6 * (1 + 0.08*float64(it%3)))
				c.SendrecvN((c.Rank()+1)%n, 0, 2048, (c.Rank()+n-1)%n, 0)
				c.Allreduce([]float64{1}, pas2p.Sum)
			}
		},
	}
	base := ablateDeploy(b, pas2p.ClusterA(), 16)
	traced, err := pas2p.RunApp(jittery, pas2p.RunConfig{Deployment: base, Trace: true})
	if err != nil {
		b.Fatal(err)
	}
	l, err := pas2p.OrderLogical(traced.Trace)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, th := range []struct {
			name string
			ev   float64
			comp float64
		}{
			{"strict", 0.99, 0.99},
			{"paper", 0.80, 0.85},
			{"loose", 0.60, 0.60},
		} {
			cfg := pas2p.DefaultPhaseConfig()
			cfg.EventSimilarity = th.ev
			cfg.ComputeSimilarity = th.comp
			an, err := pas2p.ExtractPhases(l, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(an.Phases)), "phases/"+th.name)
		}
	}
}

// BenchmarkAblationPartialExec pits PAS2P against the partial-execution
// baseline [17] on an application whose later iterations are heavier
// than its early ones — the case §2 argues whole-execution analysis is
// needed for.
func BenchmarkAblationPartialExec(b *testing.B) {
	shifting := pas2p.App{
		Name:  "shifting",
		Procs: 16,
		Body: func(c *pas2p.Comm) {
			n := c.Size()
			for it := 0; it < 60; it++ {
				weight := 1.0
				if it >= 20 {
					weight = 3.0
				}
				c.Compute(3e6 * weight)
				c.SendrecvN((c.Rank()+1)%n, 0, 2048, (c.Rank()+n-1)%n, 0)
				c.Allreduce([]float64{1}, pas2p.Sum)
			}
		},
	}
	base := ablateDeploy(b, pas2p.ClusterA(), 16)
	target := ablateDeploy(b, pas2p.ClusterB(), 16)
	for i := 0; i < b.N; i++ {
		out, err := predict.Run(predict.Experiment{App: shifting, Base: base, Target: target})
		if err != nil {
			b.Fatal(err)
		}
		traced, err := mpi.Run(shifting, mpi.RunConfig{Deployment: base, Trace: true})
		if err != nil {
			b.Fatal(err)
		}
		totals := make([]int64, shifting.Procs)
		for p, evs := range traced.Recording.Trace().PerProcess() {
			totals[p] = int64(len(evs))
		}
		pres, err := predict.DefaultPartialExec().Predict(shifting, target, totals)
		if err != nil {
			b.Fatal(err)
		}
		full, err := mpi.Run(shifting, mpi.RunConfig{Deployment: target})
		if err != nil {
			b.Fatal(err)
		}
		aet := full.Elapsed.Seconds()
		partialPETE := 100 * absF(pres.PET.Seconds()-aet) / aet
		naive, err := (predict.SpeedRatio{}).Predict(out.AETBase, base, target)
		if err != nil {
			b.Fatal(err)
		}
		naivePETE := 100 * absF(naive.Seconds()-aet) / aet
		b.ReportMetric(out.PETEPercent, "PETE%/pas2p")
		b.ReportMetric(partialPETE, "PETE%/partial")
		b.ReportMetric(naivePETE, "PETE%/speedratio")
	}
}

// BenchmarkAblationEstimator compares the phase-time estimators on the
// workload where they differ most: LU's per-k-plane wavefront
// pipeline, whose phase windows overlap in steady state.
func BenchmarkAblationEstimator(b *testing.B) {
	app, err := apps.Make("lu", 16, "classB")
	if err != nil {
		b.Fatal(err)
	}
	base := ablateDeploy(b, pas2p.ClusterA(), 16)
	target := ablateDeploy(b, pas2p.ClusterB(), 16)
	names := map[signature.ETEstimator]string{
		signature.EstimatorPairDelta: "pairdelta",
		signature.EstimatorLastSpan:  "lastspan",
		signature.EstimatorMeanSpan:  "meanspan",
	}
	for i := 0; i < b.N; i++ {
		for est, name := range names {
			sig := signature.DefaultOptions()
			sig.Estimator = est
			out, err := predict.Run(predict.Experiment{App: app, Base: base, Target: target, Signature: sig})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(out.PETEPercent, "PETE%/"+name)
		}
	}
}

// BenchmarkAblationMapping verifies mapping sensitivity: the same
// signature predicts both the block- and cyclic-mapped target (§7:
// "the signature is able to execute using different mappings").
func BenchmarkAblationMapping(b *testing.B) {
	app, err := apps.Make("cg", 16, "classA")
	if err != nil {
		b.Fatal(err)
	}
	base := ablateDeploy(b, pas2p.ClusterA(), 16)
	for i := 0; i < b.N; i++ {
		for _, pol := range []machine.MappingPolicy{machine.MapBlock, machine.MapCyclic} {
			td, err := machine.NewDeployment(machine.ClusterB(), 16, pol)
			if err != nil {
				b.Fatal(err)
			}
			out, err := predict.Run(predict.Experiment{App: app, Base: base, Target: td})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(out.PETEPercent, "PETE%/"+pol.String())
		}
	}
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkAblationWorkload exercises the workload-effect extension
// ([2]): fit per-phase scaling laws on two small CG classes and
// extrapolate the (never fully analysed) class C runtime.
func BenchmarkAblationWorkload(b *testing.B) {
	nnz := map[string]float64{"classA": 1.85e6, "classB": 1.31e7, "classC": 3.67e7}
	base := ablateDeploy(b, pas2p.ClusterA(), 16)
	traceFor := func(class string) *pas2p.Trace {
		app, err := pas2p.MakeApp("cg", 16, class)
		if err != nil {
			b.Fatal(err)
		}
		traced, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: base, Trace: true})
		if err != nil {
			b.Fatal(err)
		}
		return traced.Trace
	}
	for i := 0; i < b.N; i++ {
		var points []pas2p.WorkloadPoint
		for _, class := range []string{"classA", "classB"} {
			an, _, err := pas2p.Analyze(traceFor(class), pas2p.DefaultPhaseConfig(), 1)
			if err != nil {
				b.Fatal(err)
			}
			points = append(points, pas2p.WorkloadPoint{Param: nnz[class], Analysis: an})
		}
		model, err := pas2p.FitWorkloadModel(points)
		if err != nil {
			b.Fatal(err)
		}
		appC, err := pas2p.MakeApp("cg", 16, "classC")
		if err != nil {
			b.Fatal(err)
		}
		full, err := pas2p.RunApp(appC, pas2p.RunConfig{Deployment: base})
		if err != nil {
			b.Fatal(err)
		}
		got := pas2p.Seconds(model.Predict(nnz["classC"]))
		want := pas2p.Seconds(full.Elapsed)
		b.ReportMetric(100*absF(got-want)/want, "extrapolationErr%")
	}
}

// BenchmarkAblationScheduler quantifies §1's scheduling claim: queue
// planning with signature-grade estimates versus padded user guesses.
func BenchmarkAblationScheduler(b *testing.B) {
	mkJobs := func(pad func(i int) float64) []pas2p.SchedJob {
		var jobs []pas2p.SchedJob
		for i := 0; i < 200; i++ {
			rt := float64(30 + (i*211)%900)
			jobs = append(jobs, pas2p.SchedJob{
				ID:       i,
				Arrival:  pas2p.VTime(float64(i*15) * 1e9),
				Cores:    1 << uint(i%6),
				Runtime:  pas2p.VDuration(rt * 1e9),
				Estimate: pas2p.VDuration(rt * pad(i) * 1e9),
			})
		}
		return jobs
	}
	for i := 0; i < b.N; i++ {
		user, err := pas2p.ScheduleJobs(mkJobs(func(i int) float64 {
			return float64(2 + (i*31)%7)
		}), 64, pas2p.BackfillShortest)
		if err != nil {
			b.Fatal(err)
		}
		sig, err := pas2p.ScheduleJobs(mkJobs(func(i int) float64 {
			return 1 + 0.03*float64(i%3-1)
		}), 64, pas2p.BackfillShortest)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(user.AvgPromiseErrorSeconds, "promiseErr/user")
		b.ReportMetric(sig.AvgPromiseErrorSeconds, "promiseErr/pas2p")
		b.ReportMetric(user.AvgWaitSeconds, "wait/user")
		b.ReportMetric(sig.AvgWaitSeconds, "wait/pas2p")
	}
}

// BenchmarkAblationNICContention measures how per-node NIC
// serialisation changes a fan-in-heavy run and whether the signature
// still predicts it (the contended world is simply a different target
// machine behaviour; prediction must survive).
func BenchmarkAblationNICContention(b *testing.B) {
	app, err := apps.Make("cg", 16, "classA")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, contend := range []bool{false, true} {
			base, target := pas2p.ClusterA(), pas2p.ClusterB()
			base.NICContention, target.NICContention = contend, contend
			out, err := predict.Run(predict.Experiment{
				App: app, Base: ablateDeploy(b, base, 16), Target: ablateDeploy(b, target, 16),
			})
			if err != nil {
				b.Fatal(err)
			}
			suffix := "/free"
			if contend {
				suffix = "/contended"
			}
			b.ReportMetric(out.AETTarget.Seconds(), "AET"+suffix)
			b.ReportMetric(out.PETEPercent, "PETE%"+suffix)
		}
	}
}

// BenchmarkAblationCollectiveModel compares the analytic uniform
// collective cost against the per-member algorithmic schedule on the
// allreduce-heavy POP kernel, and checks prediction survives both.
func BenchmarkAblationCollectiveModel(b *testing.B) {
	app, err := apps.Make("pop", 16, "synthetic60")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, algo := range []bool{false, true} {
			base, target := pas2p.ClusterA(), pas2p.ClusterB()
			base.AlgorithmicCollectives, target.AlgorithmicCollectives = algo, algo
			out, err := predict.Run(predict.Experiment{
				App: app, Base: ablateDeploy(b, base, 16), Target: ablateDeploy(b, target, 16),
			})
			if err != nil {
				b.Fatal(err)
			}
			suffix := "/analytic"
			if algo {
				suffix = "/algorithmic"
			}
			b.ReportMetric(out.AETTarget.Seconds(), "AET"+suffix)
			b.ReportMetric(out.PETEPercent, "PETE%"+suffix)
		}
	}
}

// BenchmarkAblationSimPoint pits the paper's repeat-detection phases
// against SimPoint-style fixed-interval clustering ([15],[21]) with the
// identical signature machinery downstream: prediction error and
// signature length tell the §2 story (PAS2P's variable-length phases
// fold repetition better, so its signature is shorter at equal or
// better accuracy).
func BenchmarkAblationSimPoint(b *testing.B) {
	app, err := apps.Make("cg", 16, "classB")
	if err != nil {
		b.Fatal(err)
	}
	base := ablateDeploy(b, pas2p.ClusterA(), 16)
	target := ablateDeploy(b, pas2p.ClusterB(), 16)
	traced, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: base, Trace: true})
	if err != nil {
		b.Fatal(err)
	}
	l, err := pas2p.OrderLogical(traced.Trace)
	if err != nil {
		b.Fatal(err)
	}
	truth, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: target})
	if err != nil {
		b.Fatal(err)
	}
	aet := pas2p.Seconds(truth.Elapsed)

	for i := 0; i < b.N; i++ {
		for _, mode := range []string{"pas2p", "simpoint"} {
			var an *pas2p.PhaseAnalysis
			if mode == "pas2p" {
				an, err = pas2p.ExtractPhases(l, pas2p.DefaultPhaseConfig())
			} else {
				an, err = simpoint.Extract(l, simpoint.DefaultConfig())
			}
			if err != nil {
				b.Fatal(err)
			}
			tb, err := an.BuildTable(1)
			if err != nil {
				b.Fatal(err)
			}
			sig, _, err := pas2p.BuildSignature(app, tb, base, pas2p.DefaultSignatureOptions())
			if err != nil {
				b.Fatal(err)
			}
			res, err := sig.Execute(target)
			if err != nil {
				b.Fatal(err)
			}
			pete := 100 * absF(pas2p.Seconds(res.PET)-aet) / aet
			b.ReportMetric(float64(len(an.Phases)), "phases/"+mode)
			b.ReportMetric(pete, "PETE%/"+mode)
			b.ReportMetric(100*pas2p.Seconds(res.SET)/aet, "SET%/"+mode)
		}
	}
}
