package phase

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"pas2p/internal/vtime"
)

// TableRow describes one phase in the phase table (the paper's Fig. 7):
// where the designated occurrence starts and ends — expressed as
// per-process replay positions — plus the phase id and weight. The
// original tool keys boundaries by per-process send counts; we use
// per-process event counts, which identify the same replay positions
// exactly and also handle processes that receive without sending.
type TableRow struct {
	PhaseID int
	Weight  int
	// PhaseET is the mean occurrence duration on the base machine.
	PhaseET vtime.Duration
	// Relevant marks rows that pass the 1 percent rule; the signature
	// is built from relevant rows only (the ablation flips this).
	Relevant bool
	// StartEvents[p] / EndEvents[p] are how many events process p has
	// completed at the designated occurrence's start / end boundary.
	StartEvents []int64
	EndEvents   []int64
	// Occurrence is which appearance of the phase was designated for
	// checkpointing (0-based); the paper checkpoints after the phase
	// has already run a few times so the machine is warm.
	Occurrence int
	// StartTick/EndTick are the designated occurrence's logical window,
	// used to order signature segments and for reporting.
	StartTick, EndTick int
	// HasPair marks rows whose designated occurrence is immediately
	// followed by another occurrence of the same phase. The signature
	// then measures through both and reports the delta between their
	// completion cuts — the marginal per-repetition cost, which keeps
	// pipelined (wavefront) phases from charging their pipeline fill
	// to every weighted repetition. End2Events[p] is the second
	// occurrence's end boundary.
	HasPair    bool
	End2Events []int64
	// ETScale corrects the pair-delta measurement for phases whose
	// occurrences overlap physically (wavefront pipelining): when the
	// base run shows the designated pair's completion-cut delta
	// deviating from the phase's mean occurrence duration by more than
	// PairBiasGate, the executor multiplies its measured delta by this
	// factor so Equation (1) charges the mean per-repetition cost, not
	// the steady-state cut of one arbitrary occurrence. 1 means the
	// pair is unbiased; 0 (absent in pre-correction persisted tables)
	// is treated as 1 by the executor.
	ETScale float64
}

// Table is the phase table shipped with a signature.
type Table struct {
	AppName string
	Procs   int
	// BaseAET is the application execution time on the base machine.
	BaseAET vtime.Duration
	Rows    []TableRow
	// TotalPhases is the phase count before relevance filtering.
	TotalPhases int
}

// RelevantRows returns only the rows the 1 percent rule kept.
func (t *Table) RelevantRows() []TableRow {
	var out []TableRow
	for _, r := range t.Rows {
		if r.Relevant {
			out = append(out, r)
		}
	}
	return out
}

// PredictedAET applies the paper's Equation (1), PET = Σ PhaseETᵢ·Wᵢ,
// to the table's own base-machine phase times (a self-check: with all
// phases included this reconstructs the base AET).
func (t *Table) PredictedAET(relevantOnly bool) vtime.Duration {
	var pet vtime.Duration
	for _, r := range t.Rows {
		if relevantOnly && !r.Relevant {
			continue
		}
		pet += r.PhaseET * vtime.Duration(r.Weight)
	}
	return pet
}

// ErrNoLogical is BuildTable's error on an analysis without a Logical:
// Analyze and ExtractStreamTable return their table alongside the
// analysis instead.
var ErrNoLogical = errors.New("phase: analysis has no logical trace to build a table from")

// BuildTable derives the phase table from an analysis, designating for
// each phase the occurrence with index min(warmOccurrence, weight-1) —
// checkpointing a later occurrence guarantees the machine components
// (caches, TLBs) are warm when the phase is measured. It needs the
// Logical that Extract records; on any other analysis it returns
// ErrNoLogical.
func (a *Analysis) BuildTable(warmOccurrence int) (*Table, error) {
	if warmOccurrence < 0 {
		return nil, fmt.Errorf("phase: negative warm occurrence index")
	}
	if a.Logical == nil {
		return nil, ErrNoLogical
	}
	procs := a.Logical.Trace.Procs
	// prefix[p] holds the sorted tick positions of process p's events,
	// so "events completed before tick t" is a binary search.
	prefix := make([][]int64, procs)
	per := a.Logical.Trace.PerProcess()
	for p := 0; p < procs; p++ {
		ts := make([]int64, len(per[p]))
		for i := range per[p] {
			ts[i] = per[p][i].LT
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		prefix[p] = ts
	}
	eventsBefore := func(p int, tick int) int64 {
		ts := prefix[p]
		lo, hi := 0, len(ts)
		for lo < hi {
			mid := (lo + hi) / 2
			if ts[mid] < int64(tick) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return int64(lo)
	}

	relevant := map[int]bool{}
	for _, p := range a.Relevant() {
		relevant[p.ID] = true
	}
	tb := &Table{
		AppName:     a.Logical.Trace.AppName,
		Procs:       procs,
		BaseAET:     a.AET,
		TotalPhases: len(a.Phases),
	}
	for _, p := range a.Phases {
		oi, pair := designate(p, warmOccurrence)
		occ := p.Occurrences[oi]
		row := TableRow{
			PhaseID:     p.ID,
			Weight:      p.Weight(),
			PhaseET:     p.MeanET(),
			Relevant:    relevant[p.ID],
			Occurrence:  oi,
			StartTick:   occ.StartTick,
			EndTick:     occ.EndTick,
			StartEvents: make([]int64, procs),
			EndEvents:   make([]int64, procs),
		}
		for pr := 0; pr < procs; pr++ {
			row.StartEvents[pr] = eventsBefore(pr, occ.StartTick)
			row.EndEvents[pr] = eventsBefore(pr, occ.EndTick)
		}
		if pair >= 0 {
			occ2 := p.Occurrences[pair+1]
			row.HasPair = true
			row.End2Events = make([]int64, procs)
			for pr := 0; pr < procs; pr++ {
				row.End2Events[pr] = eventsBefore(pr, occ2.EndTick)
			}
			row.ETScale = etScaleFor(row.PhaseET, occ2.Dur)
		}
		tb.Rows = append(tb.Rows, row)
	}
	return tb, nil
}

// designate picks the occurrence a signature checkpoints for phase p:
// the warm-occurrence index, advanced to the first occurrence from
// there that is immediately followed by another occurrence of the same
// phase (back-to-back in tick order), so the signature can measure the
// marginal per-repetition cost. pair is -1 when no back-to-back pair
// exists; otherwise oi == pair.
func designate(p *Phase, warmOccurrence int) (oi, pair int) {
	oi = warmOccurrence
	if oi >= len(p.Occurrences) {
		oi = len(p.Occurrences) - 1
	}
	pair = -1
	for k := oi; k+1 < len(p.Occurrences); k++ {
		if p.Occurrences[k].EndTick == p.Occurrences[k+1].StartTick {
			pair = k
			break
		}
	}
	if pair >= 0 {
		oi = pair
	}
	return oi, pair
}

// PairBiasGate is the relative deviation between a phase's mean
// occurrence duration and its designated pair's completion-cut delta
// beyond which BuildTable records an ETScale correction. Phases whose
// occurrences tile time cleanly sit well under the gate (their pair
// delta *is* the mean), so their predictions stay bit-identical;
// pipelined wavefront phases, whose occurrence durations range from
// near zero (fill/drain) to the full steady-state step, blow far past
// it.
const PairBiasGate = 0.05

// etScaleFor computes the pair-bias correction factor: the ratio of
// the mean occurrence duration to the base-run pair delta, or exactly
// 1 when the pair is representative (within PairBiasGate) or the delta
// carries no information (zero-duration cut).
//
// The correction is one-sided: only ratios below 1 (the pair cut runs
// slower than the phase's mean occurrence) are recorded. That is the
// structural wavefront-pipelining signature — the back-to-back pair
// sits on the steady-state plateau while fill/drain occurrences are
// cheaper — and the ratio is a property of the dependence structure,
// so it transfers across machines. Ratios above 1 mean the pair
// happened to land on a *cheap* occurrence, which in practice comes
// from contention or scheduling noise; the executor's own pair
// measurement re-experiences the target machine's contention, so
// scaling it up by the base-machine ratio double-counts the noise and
// wrecks the prediction (observed on the cross-cluster property
// corpus under NIC contention).
func etScaleFor(meanET, pairDur vtime.Duration) float64 {
	if meanET <= 0 || pairDur <= 0 {
		return 1
	}
	s := float64(meanET) / float64(pairDur)
	if s >= 1-PairBiasGate {
		return 1
	}
	return s
}

// Validate checks table invariants: boundaries are per-process
// monotone within each row (a pair's second end included), weights
// are positive, times and scales are non-negative and finite, and
// Equation (1) over every row fits in int64.
func (t *Table) Validate() error {
	if t.Procs <= 0 {
		return fmt.Errorf("phase table: no processes")
	}
	if t.BaseAET < 0 {
		return fmt.Errorf("phase table: negative base AET %d", t.BaseAET)
	}
	var eq1 vtime.Duration
	for _, r := range t.Rows {
		if r.Weight < 1 {
			return fmt.Errorf("phase table: phase %d weight %d", r.PhaseID, r.Weight)
		}
		if r.PhaseET < 0 {
			return fmt.Errorf("phase table: phase %d negative PhaseET %d", r.PhaseID, r.PhaseET)
		}
		if r.ETScale < 0 || math.IsNaN(r.ETScale) || math.IsInf(r.ETScale, 0) {
			return fmt.Errorf("phase table: phase %d ETScale %v", r.PhaseID, r.ETScale)
		}
		var ok bool
		if eq1, ok = vtime.AddWeighted(eq1, r.PhaseET, r.Weight); !ok {
			return fmt.Errorf("phase table: phase %d: Σ weight·PhaseET overflows int64", r.PhaseID)
		}
		if len(r.StartEvents) != t.Procs || len(r.EndEvents) != t.Procs {
			return fmt.Errorf("phase table: phase %d boundary width", r.PhaseID)
		}
		pair := r.HasPair || r.End2Events != nil
		if pair && len(r.End2Events) != t.Procs {
			return fmt.Errorf("phase table: phase %d pair boundary width %d", r.PhaseID, len(r.End2Events))
		}
		any := false
		for p := 0; p < t.Procs; p++ {
			if r.StartEvents[p] > r.EndEvents[p] {
				return fmt.Errorf("phase table: phase %d proc %d start %d > end %d",
					r.PhaseID, p, r.StartEvents[p], r.EndEvents[p])
			}
			if pair && r.End2Events[p] < r.EndEvents[p] {
				return fmt.Errorf("phase table: phase %d proc %d pair end %d < end %d",
					r.PhaseID, p, r.End2Events[p], r.EndEvents[p])
			}
			if r.EndEvents[p] > r.StartEvents[p] {
				any = true
			}
		}
		if !any {
			return fmt.Errorf("phase table: phase %d spans no events", r.PhaseID)
		}
	}
	return nil
}

// Print renders the table in the spirit of the paper's Fig. 7 listing.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "PHASE_TABLE %s (%d processes, base AET %v)\n", t.AppName, t.Procs, t.BaseAET)
	fmt.Fprintf(w, "%-8s %-12s %-10s %-8s %s\n", "PhaseID", "PhaseET", "Weight", "Relevant", "Start->End (proc 0)")
	for _, r := range t.Rows {
		rel := ""
		if r.Relevant {
			rel = "yes"
		}
		fmt.Fprintf(w, "%-8d %-12v %-10d %-8s %d->%d\n",
			r.PhaseID, r.PhaseET, r.Weight, rel, r.StartEvents[0], r.EndEvents[0])
	}
}
