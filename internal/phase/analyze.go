package phase

import (
	"context"

	"pas2p/internal/logical"
)

// Analyze runs PAS2P stage A over any event source (a traced run's
// Recording.Drain, while the run records it or after; a v2
// tracefile's BlockReader.RankStreams read in place;
// logical.SourceFromTrace over a decoded trace): it orders the events
// logically (§3.2), extracts the phases (§3.3) and builds the phase
// table, with warmOccurrence as in BuildTable. The table takes the
// AET from the source's final Meta, read once the scan has drained
// every stream. The result is the same whatever the source and the
// memory budget. No Logical is built (Analysis.Logical stays nil); the
// scan derives the table itself. A non-nil logf narrates the paper's
// Fig. 6 steps. A cancelled analysis returns ctx.Err() and no result.
// Through cfg.Observer it records the spans analyze.order (setting up
// the order's merge over src), phase.extract (the fused loop that
// orders each tick and scans it; its events counter is the source's
// event total) and analyze.table (deriving the table from the scan's
// snapshots).
func Analyze(ctx context.Context, src logical.EventSource, cfg StreamConfig, warmOccurrence int,
	logf func(format string, args ...any)) (*StreamResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := cfg.Observer.StartSpan("analyze.order")
	tick, err := logical.StreamOrder(src)
	sp.End()
	if err != nil {
		return nil, err
	}
	return extractTable(ctx, tick, tick.Meta, warmOccurrence, cfg, logf)
}
