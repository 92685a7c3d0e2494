package phase

import (
	"context"
	"fmt"

	"pas2p/internal/logical"
	"pas2p/internal/trace"
)

// AnalyzeTrace runs PAS2P stage A on an in-memory trace, read through
// src: a traced run's Recording.Streams, or logical.SourceFromTrace
// over a decoded trace. It orders the events logically, extracts the
// phases and builds the phase table, with warmOccurrence as in
// BuildTable. A cancelled analysis returns ctx.Err() and nil outputs,
// never a partial one.
//
// It is ExtractStreamTable with no memory budget, fed by the streaming
// logical order over src's per-process streams: no Logical is built
// (Analysis.Logical stays nil) and the table is derived by the scan
// itself. Through cfg.Observer it records three spans in turn:
// analyze.order (setting up the order's merge over the trace),
// phase.extract (the fused loop that orders each tick and scans it)
// and analyze.table (deriving the table from the scan's snapshots).
func AnalyzeTrace(ctx context.Context, src logical.EventSource, cfg Config, warmOccurrence int) (*Analysis, *Table, error) {
	return AnalyzeTraceWithLog(ctx, src, cfg, warmOccurrence, nil)
}

// AnalyzeTraceWithLog is AnalyzeTrace narrating each step of the
// paper's Fig. 6 algorithm (startpoints, repeat detections, 4a/4b
// decisions, folds) through logf. A nil logf disables narration.
func AnalyzeTraceWithLog(ctx context.Context, src logical.EventSource, cfg Config, warmOccurrence int,
	logf func(format string, args ...any)) (*Analysis, *Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sp := cfg.Observer.StartSpan("analyze.order")
	tick, err := logical.StreamOrder(src)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	meta := tick.Meta()
	sp.SetCounter("events", int64(meta.Events))
	sp.End()
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if warmOccurrence < 0 {
		return nil, nil, fmt.Errorf("phase: negative warm occurrence index")
	}
	sp = cfg.Observer.StartSpan("phase.extract")
	x := newStreamExtractor(cfg, meta.Procs, meta.AET, nil, warmOccurrence)
	x.logf = logf
	if err := x.scan(ctx, tick); err != nil {
		sp.End()
		return nil, nil, err
	}
	x.setCounters(sp)
	sp.End()
	sp = cfg.Observer.StartSpan("analyze.table")
	tb := x.finishTable(meta)
	if sp != nil {
		// RelevantRows allocates; keep it off the nil-observer path.
		sp.SetCounter("relevant_phases", int64(len(tb.RelevantRows())))
	}
	sp.End()
	return x.an, tb, nil
}

// AnalyzeStream runs PAS2P stage A over an open v2 tracefile without
// decoding it into memory: the reader's per-rank streams feed the
// streaming logical order, whose ticks feed ExtractStreamTable. The
// reader's source must be random-access (a file or a byte slice).
// Memory stays O(window + budget) whatever the trace length, and the
// phase set and table are bit-identical to AnalyzeTrace's on the
// decoded trace. The context is checked throughout the tick loop; a
// cancelled analysis returns ctx.Err(). Through cfg.Observer it
// records the analyze.stream span around the whole pass.
func AnalyzeStream(ctx context.Context, br *trace.BlockReader, cfg StreamConfig, warmOccurrence int) (*StreamResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := cfg.Observer.StartSpan("analyze.stream")
	defer sp.End()
	rs, err := br.RankStreams()
	if err != nil {
		return nil, err
	}
	tick, err := logical.StreamOrder(rs)
	if err != nil {
		return nil, err
	}
	res, err := ExtractStreamTable(ctx, tick, tick.Meta(), warmOccurrence, cfg)
	if err != nil {
		return nil, err
	}
	sp.SetCounter("events", int64(rs.Meta().Events))
	sp.SetCounter("ticks", int64(res.Stats.Ticks))
	sp.SetCounter("spilled_phases", int64(res.Stats.SpilledPhases))
	return res, nil
}
