package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"pas2p/internal/fsx"
	"pas2p/internal/obs"
	"pas2p/internal/trace"
)

// printSpanReport lists the per-stage span aggregates — count, total
// wall time, share of the measured wall, and the p50/p95/p99 wall
// quantiles from the stage's histogram — plus each stage's allocation
// count. The pipeline spans are disjoint, so the shares sum to the
// fraction of the run the instrumentation accounts for.
func printSpanReport(snap *obs.Snapshot, wall time.Duration) {
	if len(snap.SpanStats) == 0 || wall <= 0 {
		return
	}
	names := make([]string, 0, len(snap.SpanStats))
	for n := range snap.SpanStats {
		names = append(names, n)
	}
	sort.Strings(names)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var total int64
	fmt.Println("stage spans:")
	fmt.Printf("  %-20s %5s %12s %7s %10s %10s %10s %9s\n",
		"STAGE", "COUNT", "TOTAL", "SHARE", "P50", "P95", "P99", "ALLOCS")
	for _, n := range names {
		st := snap.SpanStats[n]
		total += st.WallSumNS
		fmt.Printf("  %-20s %5d %10.3fms %6.1f%% %8.3fms %8.3fms %8.3fms %9d\n",
			n, st.Count, ms(st.WallSumNS),
			100*float64(st.WallSumNS)/float64(wall.Nanoseconds()),
			ms(st.WallP50NS), ms(st.WallP95NS), ms(st.WallP99NS), st.Allocs)
	}
	fmt.Printf("span coverage: %.1f%% of %.3fms wall (%d spans recorded, %d retained)\n",
		100*float64(total)/float64(wall.Nanoseconds()), float64(wall.Nanoseconds())/1e6,
		snap.SpansTotal, int64(len(snap.Spans)))
}

// writeTelemetry snapshots the observer's metrics, with the pipeline
// stages as a wall-clock track on its timeline, and writes each
// artifact whose path is set: the snapshot as JSON, the snapshot in
// Prometheus text format, and the trace-event timeline.
func writeTelemetry(o *obs.Observer, metricsPath, promPath, timelinePath string) (*obs.Snapshot, error) {
	snap := o.Registry.Snapshot()
	snap.AddPipelineTrack(o.Timeline, "pipeline (wall clock)")
	for _, out := range []struct {
		path, what string
		write      func(io.Writer) error
	}{
		{metricsPath, "metrics", snap.WriteJSON},
		{promPath, "prometheus metrics", snap.WritePrometheus},
		{timelinePath, "timeline", o.Timeline.WriteJSON},
	} {
		if out.path == "" {
			continue
		}
		if err := fsx.WriteFileAtomic(fsx.OS{}, out.path, out.write); err != nil {
			return nil, err
		}
		fmt.Printf("%s written to %s\n", out.what, out.path)
	}
	return snap, nil
}

// timelineFromTrace renders an existing tracefile's events as rank
// tracks (one slice per communication event, at its recorded virtual
// Enter/Exit), so `pas2p analyze -timeline` produces a viewable
// timeline without re-running the application.
func timelineFromTrace(tl *obs.Timeline, tr *trace.Trace) int {
	pid := tl.NewProcess(fmt.Sprintf("trace:%s (%d ranks)", tr.AppName, tr.Procs))
	for p := 0; p < tr.Procs; p++ {
		tl.SetThreadName(pid, p, fmt.Sprintf("rank %d", p))
	}
	for i := range tr.Events {
		ev := &tr.Events[i]
		cat := "comm"
		if ev.Kind == trace.Collective {
			cat = "collective"
		}
		tl.Slice(pid, int(ev.Process), ev.Kind.String(), cat,
			float64(ev.Enter)/1e3, float64(ev.Exit.Sub(ev.Enter))/1e3)
	}
	return pid
}
