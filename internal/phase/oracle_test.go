package phase

import (
	"pas2p/internal/logical"
	"pas2p/internal/vtime"
)

// The frozen pre-index reference scan: per-window maps for the repeat
// scan, a freshly materialised behaviour matrix per window, and the
// full cell-by-cell similarity test against every recorded phase. It
// was the production path before the fingerprint index; the golden
// tests hold Extract and ExtractStreamTable to it bit for bit.

// extractSeed runs the reference scan over a logical trace.
func extractSeed(l *logical.Logical, cfg Config) (*Analysis, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	x := &extractor{
		l:    l,
		cfg:  cfg,
		an:   &Analysis{Logical: l, Ticks: l.NumTicks(), Config: cfg, AET: l.Trace.AET},
		cuts: buildCuts(l),
	}
	x.run()
	return x.an, nil
}

// buildCuts returns cut[t] = the physical completion time of everything
// at ticks < t (a running max of event exits). Occurrence durations are
// cut deltas, so phase durations tile the run exactly.
func buildCuts(l *logical.Logical) []vtime.Time {
	cuts := make([]vtime.Time, l.NumTicks()+1)
	var hw vtime.Time
	for t := 0; t < l.NumTicks(); t++ {
		cuts[t] = hw
		for _, s := range l.Ticks[t] {
			if e := l.Trace.Events[s.Event].Exit; e > hw {
				hw = e
			}
		}
	}
	cuts[l.NumTicks()] = hw
	return cuts
}

type extractor struct {
	l    *logical.Logical
	cfg  Config
	an   *Analysis
	cuts []vtime.Time
	logf func(format string, args ...any)
}

func (x *extractor) log(format string, args ...any) {
	if x.logf != nil {
		x.logf(format, args...)
	}
}

// run scans the tick axis: grow a window from the current startpoint
// until some process repeats a communication type it already showed in
// the window; then close one or two phases exactly as the paper's
// steps 4a/4b prescribe and restart from the repeat boundary.
func (x *extractor) run() {
	nTicks := x.l.NumTicks()
	start := 0
	// firstSeen[p] maps a process's comm signature to the tick of its
	// first occurrence within the current window.
	firstSeen := make([]map[uint64]int, x.l.Trace.Procs)
	reset := func() {
		for p := range firstSeen {
			firstSeen[p] = nil
		}
	}
	reset()
	for t := 0; t < nTicks; t++ {
		// Find the repeated event at this tick with the earliest first
		// occurrence, if any (deterministic: ticks are process-sorted).
		repeatFirst := -1
		x.l.EachSig(t, func(proc int32, sig uint64) {
			m := firstSeen[proc]
			if m == nil {
				m = make(map[uint64]int)
				firstSeen[proc] = m
			}
			if ft, ok := m[sig]; ok {
				if repeatFirst < 0 || ft < repeatFirst {
					repeatFirst = ft
				}
				return
			}
			m[sig] = t
		})
		if repeatFirst < 0 {
			continue // step 3: keep growing
		}
		if repeatFirst == start {
			// Step 4a: one full period [start, t).
			x.log("tick %d: repeat of the startpoint event -> step 4a, close phase [%d,%d)", t, start, t)
			x.savePhase(start, t)
		} else {
			// Step 4b: partition into phase a and phase b.
			x.log("tick %d: repeat of tick-%d event -> step 4b, partition into [%d,%d) and [%d,%d)",
				t, repeatFirst, start, repeatFirst, repeatFirst, t)
			x.savePhase(start, repeatFirst)
			x.savePhase(repeatFirst, t)
		}
		// Step 6: new startpoint where the last phase ended; the
		// repeated event at t opens the new window.
		x.log("tick %d: new startpoint (step 6)", t)
		start = t
		reset()
		x.l.EachSig(t, func(proc int32, sig uint64) {
			m := firstSeen[proc]
			if m == nil {
				m = make(map[uint64]int)
				firstSeen[proc] = m
			}
			m[sig] = t
		})
	}
	if start < nTicks {
		x.savePhase(start, nTicks)
	}
}

// savePhase folds the window [s,e) into an existing similar phase or
// records a new one.
func (x *extractor) savePhase(s, e int) {
	if e <= s {
		return
	}
	occ := Occurrence{StartTick: s, EndTick: e, Dur: x.cuts[e].Sub(x.cuts[s])}
	cells, events := x.window(s, e)
	var match *Phase
	for _, p := range x.an.Phases {
		if similarSeed(p, cells, events, x.cfg) {
			match = p
			break
		}
	}
	if match == nil {
		x.newPhase(cells, events, occ)
		return
	}
	match.Occurrences = append(match.Occurrences, occ)
	x.log("  window [%d,%d) similar to phase %d -> weight %d (step 5)", s, e, match.ID, match.Weight())
}

// newPhase records a freshly discovered phase.
func (x *extractor) newPhase(cells [][]Cell, events int, occ Occurrence) *Phase {
	p := &Phase{
		ID:          len(x.an.Phases) + 1,
		TickLen:     len(cells),
		Cells:       cells,
		Events:      events,
		Occurrences: []Occurrence{occ},
	}
	x.an.Phases = append(x.an.Phases, p)
	x.log("  window [%d,%d) is new -> phase %d (%d events)", occ.StartTick, occ.EndTick, p.ID, events)
	return p
}

// window materialises the behaviour matrix of ticks [s,e).
func (x *extractor) window(s, e int) ([][]Cell, int) {
	procs := x.l.Trace.Procs
	cells := make([][]Cell, e-s)
	events := 0
	for t := s; t < e; t++ {
		row := make([]Cell, procs)
		for _, sl := range x.l.Ticks[t] {
			ev := &x.l.Trace.Events[sl.Event]
			row[sl.Proc] = Cell{
				Present: true,
				Sig:     ev.CommSignature(),
				Size:    ev.Size,
				Compute: ev.ComputeBefore,
			}
			events++
		}
		cells[t-s] = row
	}
	return cells, events
}

// similarSeed implements the paper's step 5 criteria with a full
// cell-by-cell scan and no shortcuts — the reference the indexed
// matcher must agree with bit for bit.
func similarSeed(p *Phase, cells [][]Cell, events int, cfg Config) bool {
	if p.TickLen != len(cells) {
		return false // 5a: tick spans must match
	}
	total := p.Events
	if events > total {
		total = events
	}
	if total == 0 {
		return true
	}
	similarCount := 0
	for t := range cells {
		for pr := range cells[t] {
			a, b := p.Cells[t][pr], cells[t][pr]
			switch {
			case !a.Present && !b.Present:
				// No event on either side: not counted.
			case !a.Present || !b.Present:
				// 5b: "type 0" compares similar to anything.
				similarCount++
			default:
				if a.Sig == b.Sig &&
					ratioAtLeast(float64(a.Size), float64(b.Size), cfg.VolumeSimilarity) &&
					ratioAtLeast(float64(a.Compute), float64(b.Compute), cfg.ComputeSimilarity) {
					similarCount++
				}
			}
		}
	}
	return float64(similarCount) >= cfg.EventSimilarity*float64(total)
}
