package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two lists
// below mirror BENCHMARK.json (TestBenchmarkJSONMatchesCode keeps them
// in step): an untraced run prints every endToEnd metric, a traced run
// every perLayer metric, whichever workload it runs.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mib", "MiB"},
	{"pass_cpu_s", "s"},
}

var serviceClasses = []string{"heavy", "light", "stream"}

// predictApps is the Table 8 experiment set: NAS class D, sweep.150
// and SMG2000 with 550 iterations, 128 ranks on cluster C.
var predictApps = []appCase{
	{"cg", "classD", 128},
	{"bt", "classD", 128},
	{"sp", "classD", 128},
	{"lu", "classD", 128},
	{"ft", "classD", 128},
	{"sweep3d", "sweep.150 13", 128},
	{"smg2000", "-n 200 solver 3 iterations 550", 128},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Each workload's own headline figures, from the untraced part
		// of a traced run.
		{"fail_ratio", "ratio"},
		{"predict_s", "s"},
		{"pete_max_pct", "%"},
		{"analyze_events_per_s", "1/s"},
		{"stream_events_per_s", "1/s"},
		{"stream_peak_heap_mib", "MiB"},
		{"serve_max_rps", "1/s"},
		{"serve_lookup_p50_ms", "ms"},
		{"serve_lookup_p99_ms", "ms"},
		{"serve_heavy_p50_ms", "ms"},
		{"serve_heavy_p99_ms", "ms"},
		{"serve_stream_p50_ms", "ms"},
		{"serve_lookup_samples", "count"},
		{"serve_heavy_samples", "count"},
		{"serve_stream_samples", "count"},
		// sim / mpi
		{"sim.base_run_s", "s"},
		{"sim.traced_run_s", "s"},
		{"sim.target_run_s", "s"},
		{"sim.messages", "count"},
		// signature
		{"signature.build_s", "s"},
		{"signature.execute_s", "s"},
		{"signature.checkpoints", "count"},
		// trace
		{"trace.encode_s", "s"},
		{"trace.decode_s", "s"},
		{"trace.decode_mb_per_s", "MB/s"},
		{"trace.rank_read_s", "s"},
		// logical
		{"logical.order_s", "s"},
		{"logical.merge_s", "s"},
		{"logical.ticks", "count"},
		// phase
		{"phase.extract_s", "s"},
		{"phase.table_s", "s"},
		{"phase.extract_stream_s", "s"},
		{"phase.spilled_phases", "count"},
		{"phase.spill_bytes", "bytes"},
		{"phase.spill_reloads", "count"},
		{"phase.phases", "count"},
		{"phase.relevant", "count"},
		// service
		{"service.cache_hit_ratio", "ratio"},
		{"service.cache_lookups", "count"},
		{"service.singleflight_dedups", "count"},
	}
	for _, c := range serviceClasses {
		defs = append(defs,
			metricDef{"service." + c + ".admitted", "count"},
			metricDef{"service." + c + ".shed_queue_full", "count"},
			metricDef{"service." + c + ".shed_infeasible", "count"},
			metricDef{"service." + c + ".server_p99_ms", "ms"},
		)
	}
	defs = append(defs,
		metricDef{"serve.analyze.incore_hit_p50_ms", "ms"},
		metricDef{"serve.analyze.incore_miss_p50_ms", "ms"},
		metricDef{"serve.analyze.stream_hit_p50_ms", "ms"},
		metricDef{"serve.analyze.stream_miss_p50_ms", "ms"},
		// sigrepo
		metricDef{"repo.lock_wait_ns", "ns"},
		metricDef{"repo.writes", "count"},
		metricDef{"repo.verified", "count"},
		// obs
		metricDef{"obs.overhead_pct", "%"},
		metricDef{"obs.overhead_q1_pct", "%"},
		metricDef{"obs.overhead_q3_pct", "%"},
	)
	for _, a := range predictApps {
		defs = append(defs, metricDef{"predict." + a.app + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"loadgen.late_ms_p99", "ms"},
		metricDef{"loadgen.conn_wait_ms_p99", "ms"},
		metricDef{"loadgen.prepare_wait_ms_p99", "ms"},
		// The benchmark's own tracing: its cost against the untraced
		// part of the same run, and how much of the traced wall time
		// the stage self times explain.
		metricDef{"bench.trace_overhead_pct", "%"},
		metricDef{"bench.stage_coverage_pct", "%"},
		// The wall times of the pass whose CPU time is pass_cpu_s and
		// of the set-up whose CPU time is setup_s.
		metricDef{"bench.pass_wall_s", "s"},
		metricDef{"bench.setup_wall_s", "s"},
	)
	return defs
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if s[lo] == s[hi] {
		return s[lo] // also keeps +Inf, which failed requests count as
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is quantile, but only where at least ten samples lie
// beyond q; otherwise ok is false.
func tailQuantile(xs []float64, q float64) (v float64, ok bool) {
	if float64(len(xs))*(1-q) < 10 {
		return math.NaN(), false
	}
	return quantile(xs, q), true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianSeconds is the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
