// Package phase implements PAS2P's pattern identification (§3.3 of the
// paper): it walks the logical trace tick by tick, cutting it into
// phases — maximal windows that end where communication behaviour
// starts repeating — and folds recurring windows into a single phase
// with a weight (its occurrence count) using the paper's similarity
// relation (same tick span; per-event: same communication type,
// similar volume, computational time within 85 percent; a phase is
// similar when at least 80 percent of its events are). Phases whose
// weight times execution time reaches 1 percent of the application
// execution time are relevant and become the signature's content.
package phase

import (
	"fmt"
	"sort"

	"pas2p/internal/logical"
	"pas2p/internal/obs"
	"pas2p/internal/vtime"
)

// Config holds the similarity and relevance knobs; the paper's values
// are the defaults and the ablation benches sweep them.
type Config struct {
	// EventSimilarity is the fraction of events that must be similar
	// for two windows to be the same phase (paper: 0.80).
	EventSimilarity float64
	// ComputeSimilarity is the minimum ratio between two events'
	// computational times for them to compare similar (paper: 0.85).
	ComputeSimilarity float64
	// VolumeSimilarity is the minimum ratio between two events'
	// communication volumes (the paper folds this into "similar
	// communication"; we default it to the same 0.85).
	VolumeSimilarity float64
	// RelevanceFraction is the share of the application execution time
	// a phase must account for to be relevant (paper: 0.01).
	RelevanceFraction float64
	// Observer, when non-nil, records a "phase.extract" span with tick,
	// scoring and pruning counters. A pointer keeps Config comparable
	// (predict relies on == against the zero value) and nil keeps the
	// extraction path allocation-free.
	Observer *obs.Observer `json:"-"`
}

// DefaultConfig returns the paper's parameter values.
func DefaultConfig() Config {
	return Config{
		EventSimilarity:   0.80,
		ComputeSimilarity: 0.85,
		VolumeSimilarity:  0.85,
		RelevanceFraction: 0.01,
	}
}

func (c Config) validate() error {
	// NaN fails every ordered comparison, so each threshold check must
	// accept only proven-good values rather than reject proven-bad ones.
	for _, v := range []float64{c.EventSimilarity, c.ComputeSimilarity, c.VolumeSimilarity} {
		if !(v > 0 && v <= 1) {
			return fmt.Errorf("phase: similarity thresholds must be in (0,1], got %v", v)
		}
	}
	if !(c.RelevanceFraction >= 0 && c.RelevanceFraction < 1) {
		return fmt.Errorf("phase: relevance fraction %v out of range", c.RelevanceFraction)
	}
	return nil
}

// Cell is one (tick offset, process) slot of a phase's behaviour
// matrix. An absent cell is the paper's communication "type 0".
type Cell struct {
	Present bool
	Sig     uint64
	Size    int64
	Compute vtime.Duration
}

// Occurrence is one concrete appearance of a phase in the trace.
type Occurrence struct {
	// StartTick (inclusive) and EndTick (exclusive) delimit the window.
	StartTick, EndTick int
	// Dur is the physical duration the occurrence accounted for on the
	// base machine (the occurrence cuts tile the whole run).
	Dur vtime.Duration
}

// Phase is one recurring behaviour pattern.
type Phase struct {
	// ID numbers phases in discovery order, starting at 1 as in the
	// paper's phase tables.
	ID int
	// TickLen is the window length in ticks.
	TickLen int
	// Cells is the representative behaviour matrix of the first
	// occurrence, indexed [tick offset][process].
	Cells [][]Cell
	// Events is the number of present cells (the event count used by
	// the similarity percentage).
	Events int
	// Occurrences lists every appearance, in trace order. Weight (the
	// paper's term) is len(Occurrences).
	Occurrences []Occurrence
}

// Weight is the number of times the phase occurs.
func (p *Phase) Weight() int { return len(p.Occurrences) }

// TotalDur is the physical time the phase accounts for on the base
// machine, summed over occurrences.
func (p *Phase) TotalDur() vtime.Duration {
	var d vtime.Duration
	for _, o := range p.Occurrences {
		d += o.Dur
	}
	return d
}

// MeanET is the phase execution time: the mean occurrence duration.
func (p *Phase) MeanET() vtime.Duration {
	if len(p.Occurrences) == 0 {
		return 0
	}
	return p.TotalDur() / vtime.Duration(len(p.Occurrences))
}

// Analysis is the result of phase extraction over one logical trace.
type Analysis struct {
	// Logical is the logical trace the phases were cut from. Only
	// Extract sets it; Analyze and ExtractStreamTable never build one,
	// and leave it nil.
	Logical *logical.Logical
	// Ticks is the logical trace's length in ticks.
	Ticks  int
	Config Config
	Phases []*Phase
	// AET is the base-machine application execution time the relevance
	// rule is measured against.
	AET vtime.Duration
}

// Relevant returns the phases whose weight times execution time is at
// least the configured fraction of the application execution time.
func (a *Analysis) Relevant() []*Phase {
	var out []*Phase
	threshold := float64(a.AET) * a.Config.RelevanceFraction
	for _, p := range a.Phases {
		if float64(p.TotalDur()) >= threshold {
			out = append(out, p)
		}
	}
	return out
}

// Extract runs the §3.3 algorithm over a logical trace. It is the
// scan Analyze runs, fed from l's tick table, with every behaviour
// matrix resident and no phase table.
func Extract(l *logical.Logical, cfg Config) (*Analysis, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if l == nil || l.NumTicks() == 0 {
		return nil, fmt.Errorf("phase: empty logical trace")
	}
	sp := cfg.Observer.StartSpan("phase.extract")
	defer sp.End()
	x := newStreamExtractor(cfg, l.Trace.Procs, nil, -1)
	x.an.AET = l.Trace.AET
	if err := x.scan(nil, newLogicalTicks(l)); err != nil {
		return nil, err
	}
	x.an.Logical = l
	x.setCounters(sp)
	return x.an, nil
}

// copyCells clones a window's behaviour matrix into its own storage.
func copyCells(cells [][]Cell) [][]Cell {
	procs := 0
	if len(cells) > 0 {
		procs = len(cells[0])
	}
	flat := make([]Cell, len(cells)*procs)
	out := make([][]Cell, len(cells))
	for t, row := range cells {
		dst := flat[t*procs : (t+1)*procs : (t+1)*procs]
		copy(dst, row)
		out[t] = dst
	}
	return out
}

// similarCells implements the paper's step 5 criteria with early
// exits: it returns as soon as the accumulated count already meets the
// threshold, or as soon as the cells still unexamined cannot lift it
// there. Both exits fire only once the outcome is decided, using the
// very comparison a full cell-by-cell scan ends with, so the answer is
// always the full scan's.
func similarCells(a, b [][]Cell, aEvents, bEvents int, cfg Config) bool {
	total := aEvents
	if bEvents > total {
		total = bEvents
	}
	if total == 0 {
		return true
	}
	need := cfg.EventSimilarity * float64(total)
	procs := 0
	if len(b) > 0 {
		procs = len(b[0])
	}
	remaining := len(b) * procs
	similarCount := 0
	for t := range b {
		rowA, rowB := a[t], b[t]
		for pr := range rowB {
			ca, cb := rowA[pr], rowB[pr]
			switch {
			case !ca.Present && !cb.Present:
			case !ca.Present || !cb.Present:
				similarCount++
			default:
				if ca.Sig == cb.Sig &&
					ratioAtLeast(float64(ca.Size), float64(cb.Size), cfg.VolumeSimilarity) &&
					ratioAtLeast(float64(ca.Compute), float64(cb.Compute), cfg.ComputeSimilarity) {
					similarCount++
				}
			}
		}
		remaining -= procs
		if float64(similarCount) >= need {
			return true
		}
		if float64(similarCount+remaining) < need {
			return false
		}
	}
	return float64(similarCount) >= need
}

// ratioAtLeast reports whether min(a,b)/max(a,b) >= threshold. Only
// the exact pair (0,0) is trivially similar; negative or NaN inputs
// (corrupt volumes or compute times) always compare dissimilar rather
// than silently matching everything.
func ratioAtLeast(a, b, threshold float64) bool {
	if a < 0 || b < 0 {
		return false
	}
	if a == b {
		return true // includes (0,0)
	}
	if a > b {
		a, b = b, a
	}
	// Here b > a >= 0, so b > 0; NaN falls through every comparison
	// above and fails this one too.
	return a/b >= threshold
}

// Validate checks the tiling invariants: occurrences cover every tick
// exactly once and durations sum to the run length.
func (a *Analysis) Validate() error {
	n := a.Ticks
	covered := make([]int, n)
	var total vtime.Duration
	for _, p := range a.Phases {
		if p.Weight() < 1 {
			return fmt.Errorf("phase %d has no occurrences", p.ID)
		}
		for _, o := range p.Occurrences {
			if o.StartTick < 0 || o.EndTick > n || o.StartTick >= o.EndTick {
				return fmt.Errorf("phase %d occurrence [%d,%d) out of range", p.ID, o.StartTick, o.EndTick)
			}
			for t := o.StartTick; t < o.EndTick; t++ {
				covered[t]++
			}
			total += o.Dur
		}
	}
	for t, cnt := range covered {
		if cnt != 1 {
			return fmt.Errorf("tick %d covered %d times", t, cnt)
		}
	}
	if total > a.AET+vtime.Duration(n) || total < a.AET-a.AET/100-vtime.Duration(n) {
		return fmt.Errorf("phase durations sum to %v, application ran %v", total, a.AET)
	}
	return nil
}

// Summary renders the analysis like the paper's Table 3 header block.
func (a *Analysis) Summary() string {
	rel := a.Relevant()
	return fmt.Sprintf("Total of phases: %d, Relevant phases: %d", len(a.Phases), len(rel))
}

// SortedByTotalDur returns phases ordered by their share of the run,
// largest first (tie-broken by ID for determinism).
func (a *Analysis) SortedByTotalDur() []*Phase {
	out := append([]*Phase(nil), a.Phases...)
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].TotalDur(), out[j].TotalDur()
		if di != dj {
			return di > dj
		}
		return out[i].ID < out[j].ID
	})
	return out
}
