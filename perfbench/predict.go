package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"pas2p"
	"pas2p/internal/vtime"
)

// appCase is one application run: registered name, workload, ranks.
type appCase struct {
	app, workload string
	procs         int
}

// eventOverhead is the per-event instrumentation cost Table 8 charges
// the traced run.
const eventOverhead = 8 * vtime.Microsecond

// predictConfig fixes the predict workload's inputs.
type predictConfig struct {
	cases []appCase
	// warm is a small experiment run during set-up, so the first timed
	// prediction does not pay for lazy runtime start-up.
	warm appCase
	// ceilings are the committed PETE ceilings, percent, per app.
	ceilings map[string]float64
}

var defaultPredict = predictConfig{
	cases: predictApps,
	warm:  appCase{"cg", "classA", 16},
	// Measured PETE at this setup: cg 1.00, bt 1.88, sp 1.92, lu 2.37,
	// ft 0.00, sweep3d 0.00, smg2000 0.83 (percent). lu's 3% is the
	// repository's own golden ceiling for lu classD/128.
	ceilings: map[string]float64{"cg": 1.5, "bt": 3, "sp": 3, "lu": 3, "ft": 1, "sweep3d": 1, "smg2000": 1.5},
}

func runPredict(ctx context.Context, e *env) (*outcome, error) {
	return predictWorkload(ctx, e, defaultPredict)
}

// preparedApp is an application bound to its Table 8 deployment
// (cluster C, block mapping; base and target are the same machine).
type preparedApp struct {
	appCase
	app pas2p.App
	dep *pas2p.Deployment
}

func prepareApps(cases []appCase) ([]preparedApp, error) {
	out := make([]preparedApp, 0, len(cases))
	for _, c := range cases {
		app, err := pas2p.MakeApp(c.app, c.procs, c.workload)
		if err != nil {
			return nil, err
		}
		d, err := pas2p.NewDeployment(pas2p.ClusterC(), c.procs, pas2p.MapBlock)
		if err != nil {
			return nil, err
		}
		out = append(out, preparedApp{appCase: c, app: app, dep: d})
	}
	return out, nil
}

func (p preparedApp) experiment(o *pas2p.Observer) pas2p.Experiment {
	return pas2p.Experiment{App: p.app, Base: p.dep, Target: p.dep, EventOverhead: eventOverhead, Observer: o}
}

// prediction is what the output checks compare: the predicted and the
// real execution time on the target.
type prediction struct {
	pet, aet pas2p.VDuration
	pete     float64
}

func (cfg predictConfig) checkPETE(app string, p prediction) error {
	if c, ok := cfg.ceilings[app]; !ok || !(p.pete <= c) {
		return fmt.Errorf("%s: PETE %.4f%% exceeds its ceiling %.1f%%", app, p.pete, cfg.ceilings[app])
	}
	return nil
}

// checkSamePrediction holds a repeated or differently-driven prediction
// to the first one, bit for bit.
func checkSamePrediction(app string, want, got prediction) error {
	if got.pet != want.pet || got.aet != want.aet {
		return fmt.Errorf("%s: prediction changed: PET %d AET %d, first run gave PET %d AET %d",
			app, got.pet, got.aet, want.pet, want.aet)
	}
	return nil
}

func predictWorkload(ctx context.Context, e *env, cfg predictConfig) (*outcome, error) {
	out := newOutcome()
	apps, setup, err := timeSetup(e, setupRuns, func() ([]preparedApp, func(), error) {
		apps, err := prepareApps(cfg.cases)
		if err != nil {
			return nil, nil, err
		}
		w, err := prepareApps([]appCase{cfg.warm})
		if err != nil {
			return nil, nil, err
		}
		if _, err := pas2p.Predict(w[0].experiment(nil)); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		return apps, nil, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	out.setup(setup)
	// The seed fixes the order the batch runs in.
	order := rand.New(rand.NewSource(e.seed)).Perm(len(apps))

	if e.traced {
		if err := tracedPredict(ctx, e, cfg, apps, order, out); err != nil {
			return nil, err
		}
	} else {
		var passes []cost
		first := map[string]prediction{}
		start := time.Now()
		for len(passes) == 0 || (time.Since(start) < e.seconds && ctx.Err() == nil) {
			var pass cost
			for _, i := range order {
				var (
					p   prediction
					err error
				)
				c := measure(func() { p, err = predictOnce(apps[i], nil) })
				pass = pass.plus(c)
				out.op(checkPrediction(cfg, apps[i].app.Name, p, err, first))
				fmt.Fprintf(e.log, "predict: %s/%d %.3fs (cpu %.3fs) PETE %.3f%%\n",
					apps[i].app.Name, apps[i].procs, c.wall.Seconds(), c.cpu.Seconds(), p.pete)
			}
			passes = append(passes, pass)
		}
		out.values["pass_cpu_s"] = medianCPUSeconds(passes)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	out.values["peak_rss_mib"] = rss
	out.values["ok_ratio"] = 1 - float64(out.failed)/float64(out.attempted)
	out.values["fail_ratio"] = float64(out.failed) / float64(out.attempted)
	return out, nil
}

func predictOnce(p preparedApp, o *pas2p.Observer) (prediction, error) {
	res, err := pas2p.Predict(p.experiment(o))
	if err != nil {
		return prediction{}, err
	}
	return prediction{pet: res.PET, aet: res.AETTarget, pete: res.PETEPercent}, nil
}

// checkPrediction applies the ceiling check and holds every later
// prediction of an app to its first one.
func checkPrediction(cfg predictConfig, app string, p prediction, err error, first map[string]prediction) error {
	if err != nil {
		return fmt.Errorf("%s: %w", app, err)
	}
	if err := cfg.checkPETE(app, p); err != nil {
		return err
	}
	if f, ok := first[app]; ok {
		return checkSamePrediction(app, f, p)
	}
	first[app] = p
	return nil
}

// stagedCounts are the work counts the traced loop collects.
type stagedCounts struct {
	messages, checkpoints, ticks, phases, relevant int64
}

// predictStaged is the Fig. 12 loop the way predict.Run performs it,
// one public call per stage, each inside a span: uninstrumented base
// run, traced run, logical order, phase extraction, phase table,
// signature construction, signature execution, target run.
func predictStaged(rec *recorder, op, root int, p preparedApp, n *stagedCounts) (prediction, error) {
	var (
		base, traced, target *pas2p.RunResult
		l                    *pas2p.Logical
		an                   *pas2p.PhaseAnalysis
		tb                   *pas2p.PhaseTable
		sig                  *pas2p.Signature
		ex                   *pas2p.ExecResult
	)
	steps := []struct {
		name string
		f    func() error
	}{
		{"sim.base_run", func() (err error) {
			base, err = pas2p.RunApp(p.app, pas2p.RunConfig{Deployment: p.dep})
			return err
		}},
		{"sim.traced_run", func() (err error) {
			traced, err = pas2p.RunApp(p.app, pas2p.RunConfig{Deployment: p.dep, Trace: true, EventOverhead: eventOverhead})
			return err
		}},
		{"logical.order", func() (err error) { l, err = pas2p.OrderLogical(traced.Trace); return err }},
		{"phase.extract", func() (err error) { an, err = pas2p.ExtractPhases(l, pas2p.DefaultPhaseConfig()); return err }},
		{"phase.table", func() (err error) { tb, err = an.BuildTable(1); return err }},
		{"signature.build", func() (err error) {
			sig, _, err = pas2p.BuildSignature(p.app, tb, p.dep, pas2p.DefaultSignatureOptions())
			return err
		}},
		{"signature.execute", func() (err error) { ex, err = sig.Execute(p.dep); return err }},
		{"sim.target_run", func() (err error) {
			target, err = pas2p.RunApp(p.app, pas2p.RunConfig{Deployment: p.dep})
			return err
		}},
	}
	for _, s := range steps {
		if err := rec.call(op, root, s.name, s.f); err != nil {
			return prediction{}, fmt.Errorf("%s: %s: %w", p.app.Name, s.name, err)
		}
	}
	n.messages += base.Stats.Messages + traced.Stats.Messages + target.Stats.Messages
	n.checkpoints += int64(len(sig.Catalog.Snapshots))
	n.ticks += int64(l.NumTicks())
	n.phases += int64(tb.TotalPhases)
	n.relevant += int64(len(tb.RelevantRows()))
	aet := target.Elapsed
	return prediction{pet: ex.PET, aet: aet,
		pete: 100 * math.Abs(ex.PET.Seconds()-aet.Seconds()) / aet.Seconds()}, nil
}

// predictStages are the span names whose self times split the traced
// loop.
var predictStages = []string{"sim.base_run", "sim.traced_run", "logical.order", "phase.extract",
	"phase.table", "signature.build", "signature.execute", "sim.target_run"}

// tracedPredict runs, per application in seed order, an untraced
// prediction with a nil observer, the same prediction with
// pas2p.NewObserver() attached, and the staged loop under spans, the
// three taking turns to go first from one application to the next. The
// untraced call is the reference: the other two must reproduce its PET
// bit for bit, and both the observer and the span overhead are
// measured against it.
func tracedPredict(ctx context.Context, e *env, cfg predictConfig, apps []preparedApp, order []int, out *outcome) error {
	rec := newRecorder()
	var (
		n                       stagedCounts
		plainSum, obsSum, trSum time.Duration
		obsPct                  []float64
		peteMax                 float64
	)
	for k, i := range order {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := apps[i]
		var (
			pred  [3]prediction
			errs  [3]error
			walls [3]time.Duration
		)
		calls := [3]func(){
			func() { pred[0], errs[0] = predictOnce(p, nil) },
			func() { pred[1], errs[1] = predictOnce(p, pas2p.NewObserver()) },
			func() {
				op := rec.newOp()
				root := rec.start(op, 0, "predict")
				pred[2], errs[2] = predictStaged(rec, op, root, p, &n)
				rec.end(root)
			},
		}
		for j := range calls {
			c := (j + k) % len(calls)
			walls[c] = measure(calls[c]).wall
		}
		name := p.app.Name
		out.op(checkPrediction(cfg, name, pred[0], errs[0], map[string]prediction{}))
		for c := 1; c < len(calls); c++ {
			out.op(checkPrediction(cfg, name, pred[c], errs[c], map[string]prediction{name: pred[0]}))
		}
		plain := walls[0]
		out.values["predict."+name+"_s"] = plain.Seconds()
		plainSum += plain
		obsSum += walls[1]
		trSum += walls[2]
		obsPct = append(obsPct, 100*(walls[1].Seconds()-plain.Seconds())/plain.Seconds())
		peteMax = max(peteMax, pred[0].pete)
	}
	self := rec.selfTimes()
	var stageSum time.Duration
	for _, s := range predictStages {
		out.values[s+"_s"] = self[s].Seconds()
		stageSum += self[s]
	}
	out.values["predict_s"] = plainSum.Seconds()
	out.values["bench.pass_wall_s"] = plainSum.Seconds()
	out.values["pete_max_pct"] = peteMax
	out.values["sim.messages"] = float64(n.messages)
	out.values["signature.checkpoints"] = float64(n.checkpoints)
	out.values["logical.ticks"] = float64(n.ticks)
	out.values["phase.phases"] = float64(n.phases)
	out.values["phase.relevant"] = float64(n.relevant)
	out.values["obs.overhead_pct"] = 100 * (obsSum.Seconds() - plainSum.Seconds()) / plainSum.Seconds()
	out.values["obs.overhead_q1_pct"] = quantile(obsPct, 0.25)
	out.values["obs.overhead_q3_pct"] = quantile(obsPct, 0.75)
	out.values["bench.trace_overhead_pct"] = 100 * (trSum.Seconds() - plainSum.Seconds()) / plainSum.Seconds()
	out.values["bench.stage_coverage_pct"] = 100 * stageSum.Seconds() / rec.wall("predict").Seconds()
	fmt.Fprintf(e.log, "predict: traced batch %.2fs, untraced %.2fs, with observer %.2fs\n",
		trSum.Seconds(), plainSum.Seconds(), obsSum.Seconds())
	return rec.save(e.spans)
}
