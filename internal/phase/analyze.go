package phase

import (
	"context"
	"fmt"

	"pas2p/internal/logical"
	"pas2p/internal/trace"
)

// AnalyzeTrace runs PAS2P stage A on an in-memory trace: logical
// order, phase extraction and phase table, with warmOccurrence as in
// BuildTable. A cancelled analysis returns ctx.Err() and nil outputs,
// never a partial one.
//
// It is ExtractStreamTable with no memory budget, fed by the streaming
// logical order over the trace's per-process streams: no Logical is
// built (Analysis.Logical stays nil) and the table is derived by the
// scan itself. Through cfg.Observer it records three spans in turn:
// analyze.order (setting up the order's merge over the trace),
// phase.extract (the fused loop that orders each tick and scans it)
// and analyze.table (deriving the table from the scan's snapshots).
func AnalyzeTrace(ctx context.Context, tr *trace.Trace, cfg Config, warmOccurrence int) (*Analysis, *Table, error) {
	return AnalyzeTraceWithLog(ctx, tr, cfg, warmOccurrence, nil)
}

// AnalyzeTraceWithLog is AnalyzeTrace narrating each step of the
// paper's Fig. 6 algorithm (startpoints, repeat detections, 4a/4b
// decisions, folds) through logf. A nil logf disables narration.
func AnalyzeTraceWithLog(ctx context.Context, tr *trace.Trace, cfg Config, warmOccurrence int,
	logf func(format string, args ...any)) (*Analysis, *Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sp := cfg.Observer.StartSpan("analyze.order")
	src, err := logical.StreamTrace(tr)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	sp.SetCounter("events", int64(len(tr.Events)))
	sp.End()
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if warmOccurrence < 0 {
		return nil, nil, fmt.Errorf("phase: negative warm occurrence index")
	}
	sp = cfg.Observer.StartSpan("phase.extract")
	x := newStreamExtractor(cfg, tr.Procs, tr.AET, nil, warmOccurrence)
	x.logf = logf
	if err := x.scan(ctx, src); err != nil {
		sp.End()
		return nil, nil, err
	}
	x.setCounters(sp)
	sp.End()
	sp = cfg.Observer.StartSpan("analyze.table")
	tb := x.finishTable(src.Meta())
	if sp != nil {
		// RelevantRows allocates; keep it off the nil-observer path.
		sp.SetCounter("relevant_phases", int64(len(tb.RelevantRows())))
	}
	sp.End()
	return x.an, tb, nil
}
