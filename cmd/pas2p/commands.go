package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"pas2p/internal/apps"
	"pas2p/internal/faults"
	"pas2p/internal/fsx"
	"pas2p/internal/logical"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/obs"
	"pas2p/internal/phase"
	"pas2p/internal/predict"
	"pas2p/internal/report"
	"pas2p/internal/signature"
	"pas2p/internal/trace"
)

func cmdApps(args []string) error {
	fs := newFlagSet("apps")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	fmt.Printf("%-14s %-18s %s\n", "APP", "DEFAULT WORKLOAD", "WORKLOADS")
	for _, n := range apps.Names() {
		s := apps.Lookup(n)
		fmt.Printf("%-14s %-18s %s\n", n, s.DefaultWorkload, strings.Join(s.Workloads, ", "))
	}
	return nil
}

func cmdClusters(args []string) error {
	fs := newFlagSet("clusters")
	export := fs.String("export", "", "write the named preset as JSON to stdout (template for custom clusters)")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *export != "" {
		cl := machine.ByName(*export)
		if cl == nil {
			return fmt.Errorf("unknown cluster %q", *export)
		}
		return machine.SaveCluster(os.Stdout, cl)
	}
	report.Table2(os.Stdout)
	return nil
}

// deployFor resolves -cluster/-cores into a deployment for n ranks. A
// cluster name starting with '@' loads a custom JSON model instead of
// a Table 2 preset (derive one with 'pas2p clusters -export A').
func deployFor(clusterName string, cores, ranks int) (*machine.Deployment, error) {
	path, custom := strings.CutPrefix(clusterName, "@")
	if !custom {
		return machine.Deploy(clusterName, cores, ranks)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cl, err := machine.LoadCluster(f)
	if err != nil {
		return nil, err
	}
	if err := cl.Restrict(cores); err != nil {
		return nil, err
	}
	return machine.NewDeployment(cl, ranks, machine.MapBlock)
}

func cmdTrace(args []string) error {
	fs := newFlagSet("trace")
	app := fs.String("app", "", "application name (see 'pas2p apps')")
	procs := fs.Int("procs", 64, "number of processes")
	workload := fs.String("workload", "", "workload name (default: app's default)")
	cluster := fs.String("cluster", "A", "base cluster (A..D)")
	out := fs.String("o", "", "output tracefile (default <app>.pas2p)")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *app == "" {
		return fmt.Errorf("trace: -app is required")
	}
	a, err := apps.Make(*app, *procs, *workload)
	if err != nil {
		return err
	}
	d, err := deployFor(*cluster, 0, *procs)
	if err != nil {
		return err
	}
	res, err := mpi.Run(a, mpi.RunConfig{
		Deployment: d, Trace: true, EventOverhead: mpi.PAS2PEventOverhead,
	})
	if err != nil {
		return err
	}
	tr := res.Recording.Trace()
	path := *out
	if path == "" {
		path = *app + ".pas2p"
	}
	err = fsx.WriteFileAtomic(fsx.OS{}, path, func(w io.Writer) error { return trace.Encode(w, tr) })
	if err != nil {
		return err
	}
	written, err := os.Stat(path)
	if err != nil {
		return err
	}
	st := tr.Stats()
	fmt.Printf("traced %s on %s: %d events (%d sends, %d recvs, %d collectives)\n",
		*app, d, st.Events, st.Sends, st.Recvs, st.Collectives)
	fmt.Printf("virtual AET (instrumented): %.2fs\n", res.Elapsed.Seconds())
	fmt.Printf("tracefile: %s (%d bytes)\n", path, written.Size())
	return nil
}

func cmdAnalyze(args []string) error {
	fs := newFlagSet("analyze")
	in := fs.String("trace", "", "input tracefile")
	out := fs.String("o", "", "write the phase table as JSON to this path")
	warm := fs.Int("warm", 1, "occurrence designated for checkpointing")
	explain := fs.Bool("explain", false, "narrate the extraction algorithm's steps (paper Fig. 6)")
	eventSim := fs.Float64("event-similarity", 0.80, "fraction of similar events required")
	compSim := fs.Float64("compute-similarity", 0.85, "compute-time similarity ratio")
	relevance := fs.Float64("relevance", 0.01, "relevant-phase AET fraction")
	metricsOut := fs.String("metrics", "", "write a metrics snapshot (stage spans, counters) as JSON")
	timelineOut := fs.String("timeline", "", "write a Chrome trace-event timeline of the tracefile")
	promOut := fs.String("prom", "", "also write the metrics in Prometheus text format")
	faultSpec := fs.String("faults", "", "perturb the trace's clocks before analysis, e.g. skew=5ms,drift=0.001")
	seed := fs.Int64("seed", 1, "fault-injection seed (with -faults)")
	serve := fs.String("serve", "", "serve live telemetry on this address while analyzing, e.g. 127.0.0.1:9090 (port 0 picks one)")
	memBudget := fs.String("mem-budget", "256MiB", "resident-memory budget for phase matrices, e.g. 64MiB, 1GiB (0 = unlimited)")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("analyze: -trace is required")
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		return fmt.Errorf("analyze: -mem-budget: %w", err)
	}
	inj, err := faults.ParseSpec(*seed, *faultSpec)
	if err != nil {
		return err
	}
	var o *obs.Observer
	switch {
	case *timelineOut != "":
		o = obs.NewWithTimeline()
	case *metricsOut != "" || *promOut != "" || *serve != "":
		o = obs.New()
	}
	inj.SetObserver(o)
	stopServe, err := startServe(*serve, o)
	if err != nil {
		return err
	}
	defer stopServe()
	cfg := phase.DefaultConfig()
	cfg.EventSimilarity = *eventSim
	cfg.ComputeSimilarity = *compSim
	cfg.RelevanceFraction = *relevance
	cfg.Observer = o
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	src, tr, err := analyzeSource(f, *faultSpec != "" || *timelineOut != "", trace.CodecOptions{Reg: o.Reg()})
	if err != nil {
		return err
	}
	if *faultSpec != "" {
		// Clock skew/drift tests the machine-independence of the
		// logical ordering: the phases extracted from a skewed trace
		// should match the clean trace's.
		skewed, err := inj.SkewTrace(tr)
		if err != nil {
			return fmt.Errorf("analyze: skewing trace: %w", err)
		}
		if rep := inj.Report(); rep.ProcsSkewed > 0 {
			fmt.Printf("injected clock skew into %d processes (seed %d)\n",
				rep.ProcsSkewed, *seed)
		}
		tr = skewed
		src = logical.SourceFromTrace(tr)
		inj.Publish(o.Reg())
	}
	var logf func(string, ...any)
	if *explain {
		logf = func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		}
	}
	res, err := phase.Analyze(context.Background(), src,
		phase.StreamConfig{Config: cfg, MemBudgetBytes: budget}, *warm, logf)
	if err != nil {
		return err
	}
	defer res.Close()
	meta := src.Meta()
	fmt.Printf("application: %s, %d processes, %d events, %d ticks\n",
		meta.AppName, meta.Procs, meta.Events, res.Analysis.Ticks)
	fmt.Println(res.Analysis.Summary())
	if st := res.Stats; st.SpilledPhases > 0 {
		fmt.Printf("out-of-core: budget %s, %d phase matrices spilled (%d bytes), %d reloads\n",
			*memBudget, st.SpilledPhases, st.SpillBytes, st.SpillLoads)
	}
	res.Table.Print(os.Stdout)
	if *out != "" {
		g, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer g.Close()
		enc := json.NewEncoder(g)
		enc.SetIndent("", " ")
		if err := enc.Encode(res.Table); err != nil {
			return err
		}
		fmt.Printf("phase table written to %s\n", *out)
	}
	if *timelineOut != "" {
		predict.MarkPhases(o.Timeline, timelineFromTrace(o.Timeline, tr), res.Analysis)
	}
	if o != nil {
		if _, err := writeTelemetry(o, *metricsOut, *promOut, *timelineOut); err != nil {
			return err
		}
	}
	return nil
}

// analyzeSource opens stage A's event source on f. A tracefile on a
// regular file is read in place through its rank streams, block by
// block, and tr is nil. A pipe, or any input when decode asks for the
// events themselves, is decoded whole and tr is the decoded trace.
func analyzeSource(f *os.File, decode bool, opts trace.CodecOptions) (logical.EventSource, *trace.Trace, error) {
	if st, err := f.Stat(); err == nil && st.Mode().IsRegular() && !decode {
		br, err := trace.NewBlockReaderWith(f, opts)
		if err != nil {
			return nil, nil, err
		}
		rs, err := br.RankStreams()
		if err != nil {
			return nil, nil, err
		}
		return rs, nil, nil
	}
	tr, err := trace.DecodeWith(f, opts)
	if err != nil {
		return nil, nil, err
	}
	return logical.SourceFromTrace(tr), tr, nil
}

// parseBytes parses a human byte size: plain bytes, or a decimal with
// a KiB/MiB/GiB (binary) or KB/MB/GB (decimal) suffix.
func parseBytes(s string) (int64, error) {
	orig := s
	s = strings.TrimSpace(s)
	mult := int64(1)
	for _, u := range []struct {
		suf string
		m   int64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30},
		{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"B", 1},
	} {
		if strings.HasSuffix(s, u.suf) {
			mult = u.m
			s = strings.TrimSpace(strings.TrimSuffix(s, u.suf))
			break
		}
	}
	n, err := strconv.ParseFloat(s, 64)
	n *= float64(mult)
	// The negated test also refuses NaN; int64 holds no size from 2^63.
	if err != nil || !(n >= 0 && n < 1<<63) {
		return 0, fmt.Errorf("invalid byte size %q", orig)
	}
	return int64(n), nil
}

func cmdAET(args []string) error {
	fs := newFlagSet("aet")
	app := fs.String("app", "", "application name")
	procs := fs.Int("procs", 64, "number of processes")
	workload := fs.String("workload", "", "workload name")
	cluster := fs.String("cluster", "A", "cluster (A..D)")
	cores := fs.Int("cores", 0, "restrict the cluster to this many cores")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *app == "" {
		return fmt.Errorf("aet: -app is required")
	}
	a, err := apps.Make(*app, *procs, *workload)
	if err != nil {
		return err
	}
	d, err := deployFor(*cluster, *cores, *procs)
	if err != nil {
		return err
	}
	res, err := mpi.Run(a, mpi.RunConfig{Deployment: d})
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s\n", *app, d)
	fmt.Printf("AET: %.2fs (virtual)\n", res.Elapsed.Seconds())
	return nil
}

// cmdPredict runs the full Fig. 12 loop: signature construction on the
// base cluster, its execution on the target, and (unless
// -no-ground-truth) the full target run PETE is measured against, which
// for a target equal to the base is the plain base run itself. With
// -faults the pipeline runs under deterministic fault injection; every
// fault decision is a pure function of the seed, so -verify re-runs it
// with a fresh injector and requires the identical outcome.
func cmdPredict(args []string) error {
	fs := newFlagSet("predict")
	app := fs.String("app", "", "application name")
	procs := fs.Int("procs", 64, "number of processes")
	workload := fs.String("workload", "", "workload name")
	base := fs.String("base", "A", "base cluster (signature construction)")
	target := fs.String("target", "B", "target cluster (prediction)")
	cores := fs.Int("cores", 0, "restrict the target to this many cores")
	allPhases := fs.Bool("all-phases", false, "measure every phase, not only the relevant ones")
	noTruth := fs.Bool("no-ground-truth", false, "skip the full target run (prediction only)")
	faultSpec := fs.String("faults", "",
		"inject faults: key=value list (loss, dup, delay[:MAX], crash, attempts, jitter, skew, drift, rto, retrans, backoff)")
	seed := fs.Int64("seed", 1, "fault schedule seed (same seed -> identical faults and prediction)")
	verify := fs.Bool("verify", false, "re-run with the same seed and check the outcome is identical")
	metricsOut := fs.String("metrics", "", "write a metrics snapshot (stage spans, counters) as JSON")
	promOut := fs.String("prom", "", "write the metrics in Prometheus text format")
	timelineOut := fs.String("timeline", "", "write a Chrome trace-event timeline (open in Perfetto)")
	serve := fs.String("serve", "", "serve live telemetry during the run, e.g. 127.0.0.1:9090 (port 0 picks one); /flight lists each injected fault")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *app == "" {
		return fmt.Errorf("predict: -app is required")
	}
	if _, err := faults.ParseSpec(*seed, *faultSpec); err != nil {
		return err
	}
	a, err := apps.Make(*app, *procs, *workload)
	if err != nil {
		return err
	}
	bd, err := deployFor(*base, 0, *procs)
	if err != nil {
		return err
	}
	td, err := deployFor(*target, *cores, *procs)
	if err != nil {
		return err
	}
	var sig signature.Options
	if *allPhases {
		sig = signature.DefaultOptions()
		sig.AllPhases = true
	}
	// Each run gets a fresh injector from the same (seed, spec), so the
	// verification run sees the exact schedule the first run saw.
	run := func(o *obs.Observer) (*predict.Outcome, error) {
		var inj *faults.Injector
		if *faultSpec != "" {
			inj, _ = faults.ParseSpec(*seed, *faultSpec) // the spec parsed above
		}
		return predict.Run(predict.Experiment{
			App: a, Base: bd, Target: td,
			EventOverhead: mpi.PAS2PEventOverhead,
			SkipTargetAET: *noTruth,
			Signature:     sig,
			Observer:      o,
			Faults:        inj,
		})
	}

	var o *obs.Observer
	switch {
	case *timelineOut != "":
		o = obs.NewWithTimeline()
	case *metricsOut != "" || *promOut != "" || *serve != "":
		o = obs.New()
	}
	stopServe, err := startServe(*serve, o)
	if err != nil {
		return err
	}
	defer stopServe()
	t0 := time.Now()
	out, err := run(o)
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	fmt.Printf("application : %s (%d processes, workload %q)\n", *app, *procs, *workload)
	fmt.Printf("base machine: %s\n", bd)
	fmt.Printf("target      : %s\n", td)
	fmt.Printf("analysis    : %d phases, %d relevant, tracefile %d bytes, TFAT %.3fs\n",
		out.Total, out.Relevant, out.TFSize, out.TFAT.Seconds())
	fmt.Printf("construction: SCT %.2fs, base AET %.2fs (instrumented %.2fs)\n",
		out.SCT.Seconds(), out.AETBase.Seconds(), out.AETPAS2P.Seconds())
	fmt.Printf("signature   : SET %.2fs\n", out.SET.Seconds())
	fmt.Printf("prediction  : PET %.2fs\n", out.PET.Seconds())
	if !*noTruth {
		fmt.Printf("ground truth: AET %.2fs  ->  PETE %.2f%%  (SET is %.2f%% of AET)\n",
			out.AETTarget.Seconds(), out.PETEPercent, out.SETvsAETPercent)
	}
	if *faultSpec != "" {
		fmt.Println(out.Faults)
		if out.Degraded {
			fmt.Printf("DEGRADED: phases %v lost to unrecovered crashes; PET covers the surviving phases only\n",
				out.LostPhases)
		}
	}
	printTimeline(out)

	if *verify {
		again, err := run(nil)
		if err != nil {
			return fmt.Errorf("predict: verification run: %w", err)
		}
		if diffs := out.Diff(again); len(diffs) > 0 {
			return fmt.Errorf("predict: seed %d did NOT reproduce: %s", *seed, strings.Join(diffs, "; "))
		}
		fmt.Printf("determinism : verified — seed %d reproduces the identical fault schedule and prediction\n", *seed)
	}

	if o == nil {
		return nil
	}
	snap, err := writeTelemetry(o, *metricsOut, *promOut, *timelineOut)
	if err != nil {
		return err
	}
	printSpanReport(snap, wall)
	return nil
}

// printTimeline renders the paper's Fig. 11: restart, measure, restart,
// ..., then the prediction model.
func printTimeline(out *predict.Outcome) {
	fmt.Println("\nsignature execution timeline (Fig. 11):")
	var t float64
	for _, m := range out.Phases {
		r := m.Restart.Seconds()
		wu := m.Warmup.Seconds()
		et := m.ET.Seconds()
		fmt.Printf(" t=%8.3fs  restart ckpt(phase %d)   +%.3fs\n", t, m.PhaseID, r)
		t += r
		fmt.Printf(" t=%8.3fs  warm-up                  +%.3fs\n", t, wu)
		t += wu
		fmt.Printf(" t=%8.3fs  measure phase %-3d        +%.3fs (x weight %d -> %.2fs)\n",
			t, m.PhaseID, et, m.Weight, m.Contribution().Seconds())
		t += et
	}
	fmt.Printf(" t=%8.3fs  all processes report; Eq.(1) -> PET %.2fs\n",
		t, out.PET.Seconds())
}
