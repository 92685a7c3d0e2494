package phase

import (
	"context"

	"pas2p/internal/logical"
	"pas2p/internal/trace"
)

// AnalyzeTrace runs PAS2P stage A on an in-memory trace: logical
// order, phase extraction and phase table, with warmOccurrence as in
// BuildTable. The context is checked before each stage; a cancelled
// analysis returns ctx.Err() and nil outputs, never a partial one.
// Through cfg.Observer the stages record the spans analyze.order,
// phase.extract and analyze.table.
func AnalyzeTrace(ctx context.Context, tr *trace.Trace, cfg Config, warmOccurrence int) (*Analysis, *Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sp := cfg.Observer.StartSpan("analyze.order")
	l, err := logical.Order(tr)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	sp.SetCounter("events", int64(len(tr.Events)))
	sp.SetCounter("ticks", int64(l.NumTicks()))
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	an, err := Extract(l, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sp = cfg.Observer.StartSpan("analyze.table")
	tb, err := an.BuildTable(warmOccurrence)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	if sp != nil {
		// RelevantRows allocates; keep it off the nil-observer path.
		sp.SetCounter("relevant_phases", int64(len(tb.RelevantRows())))
	}
	sp.End()
	return an, tb, nil
}
