package phase

import (
	"context"

	"pas2p/internal/logical"
)

// Analyze runs PAS2P stage A over any event source (a traced run's
// Recording.Streams, a v2 tracefile's BlockReader.RankStreams read in
// place, logical.SourceFromTrace over a decoded trace): it orders the
// events logically (§3.2), extracts the phases (§3.3) and builds the
// phase table, with warmOccurrence as in BuildTable. The result is the
// same whatever the source and the memory budget. No Logical is built
// (Analysis.Logical stays nil); the scan derives the table itself. A
// non-nil logf narrates the paper's Fig. 6 steps. A cancelled analysis
// returns ctx.Err() and no result. Through cfg.Observer it records the
// spans analyze.order (setting up the order's merge over src),
// phase.extract (the fused loop that orders each tick and scans it)
// and analyze.table (deriving the table from the scan's snapshots).
func Analyze(ctx context.Context, src logical.EventSource, cfg StreamConfig, warmOccurrence int,
	logf func(format string, args ...any)) (*StreamResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := cfg.Observer.StartSpan("analyze.order")
	tick, err := logical.StreamOrder(src)
	if err != nil {
		sp.End()
		return nil, err
	}
	meta := tick.Meta()
	sp.SetCounter("events", int64(meta.Events))
	sp.End()
	return extractTable(ctx, tick, meta, warmOccurrence, cfg, logf)
}
