// The matching engine behind every window close. A window first tries the
// window-equality cache (iterative programs repeat windows verbatim);
// on a miss, candidates come from the fingerprint index, survivors of
// the counting bound are scored with the early-exit similarity test in
// phase-ID order. Results are bit-identical to the reference scan: the
// winner is always the matching candidate with the lowest phase ID.
package phase

// directScoreBucket is the bucket size up to which candidates are
// scored outright: the early-exit test over a handful of phases is
// cheaper than building the window profile the pruning bound needs.
const directScoreBucket = 4

type matcher struct {
	cfg     Config
	idx     *phaseIndex
	scratch []indexEntry
	// cellsOf, when set, resolves a candidate phase's behaviour matrix.
	// The out-of-core extraction keeps cold matrices in a spill store and
	// leaves Phase.Cells nil until the analysis is materialised, so every
	// scoring site routes through it.
	cellsOf func(*Phase) [][]Cell
	// cache holds, per tick length, the previous window and its
	// resolution.
	cache map[int]*bucketCache
	// winTab and winPP hold the current window's scratch profile —
	// hashed (process, signature) counts and per-process totals —
	// rebuilt in place when a window actually needs one: profiling is
	// lazy, because small buckets score faster directly.
	winTab      countTable
	winPP       []int32
	winProfiled bool

	// Extraction-wide tallies for the observability span: candidates
	// actually scored with the full similarity test, candidates
	// eliminated by the counting bound, and window-equality cache hits.
	nScored, nPruned, nCacheHits int64
}

// bucketCache remembers the last window seen at a given tick length
// and the phase it resolved to. Iterative SPMD programs emit long runs
// of bit-identical windows, and an identical window provably resolves
// to the same phase: phases are immutable once recorded, candidates
// are scanned in ID order, and every phase recorded since the cached
// window carries a higher ID than the cached resolution — so the first
// match cannot change.
type bucketCache struct {
	cells  [][]Cell
	events int
	phase  *Phase
}

func newMatcher(cfg Config) *matcher {
	m := &matcher{cfg: cfg, idx: newPhaseIndex(), cache: make(map[int]*bucketCache)}
	m.winTab.init(512)
	return m
}

// phaseCells resolves a phase's behaviour matrix for scoring: directly
// in-core, or through the spill store when the out-of-core extraction
// owns the matrices.
func (m *matcher) phaseCells(p *Phase) [][]Cell {
	if m.cellsOf != nil {
		return m.cellsOf(p)
	}
	return p.Cells
}

// profileWindow rebuilds the scratch profile from a freshly
// materialised window.
func (m *matcher) profileWindow(cells [][]Cell) {
	m.winProfiled = true
	m.winTab.reset()
	procs := 0
	if len(cells) > 0 {
		procs = len(cells[0])
	}
	if cap(m.winPP) < procs {
		m.winPP = make([]int32, procs)
	} else {
		m.winPP = m.winPP[:procs]
		clear(m.winPP)
	}
	for _, row := range cells {
		for pr := range row {
			if row[pr].Present {
				m.winPP[pr]++
				m.winTab.inc(sigKey(int32(pr), row[pr].Sig))
			}
		}
	}
}

// addCurrent records a freshly discovered phase under the profile of
// the window that created it, building it now if match skipped it.
func (m *matcher) addCurrent(p *Phase, cells [][]Cell) {
	if !m.winProfiled {
		m.profileWindow(cells)
	}
	prof := &sigProfile{
		events:  p.Events,
		perProc: append([]int32(nil), m.winPP...),
		entries: m.winTab.compact(),
	}
	m.idx.add(p, prof)
}

// cacheHit returns the cached resolution when the window is
// cell-for-cell identical to the previous window of its bucket.
func (m *matcher) cacheHit(cells [][]Cell, events int) *Phase {
	c := m.cache[len(cells)]
	if c == nil || c.events != events {
		return nil
	}
	for t := range cells {
		ca, cb := c.cells[t], cells[t]
		for pr := range cb {
			if ca[pr] != cb[pr] {
				return nil
			}
		}
	}
	m.nCacheHits++
	return c.phase
}

// setCache records the window just resolved as its bucket's
// comparison point.
func (m *matcher) setCache(cells [][]Cell, events int, p *Phase) {
	if c := m.cache[len(cells)]; c != nil {
		c.cells, c.events, c.phase = cells, events, p
		return
	}
	m.cache[len(cells)] = &bucketCache{cells: cells, events: events, phase: p}
}

// match returns the first phase, in discovery (ID) order, that the
// window folds into under the §3.3 similarity relation, or nil.
// Small buckets are scored directly; larger ones are pruned with the
// counting bound over a window profile built on demand.
func (m *matcher) match(cells [][]Cell, events int) *Phase {
	m.winProfiled = false
	cands := m.idx.candidates(len(cells))
	if len(cands) == 0 {
		return nil
	}
	if len(cands) <= directScoreBucket {
		for _, c := range cands {
			m.nScored++
			if similarCells(m.phaseCells(c.phase), cells, c.phase.Events, events, m.cfg) {
				return c.phase
			}
		}
		return nil
	}
	m.profileWindow(cells)
	live := m.scratch[:0]
	for _, c := range cands {
		if m.couldMatch(c.prof, len(cells), events) {
			live = append(live, c)
		}
	}
	m.scratch = live
	m.nPruned += int64(len(cands) - len(live))
	for _, c := range live {
		m.nScored++
		if similarCells(m.phaseCells(c.phase), cells, c.phase.Events, events, m.cfg) {
			return c.phase
		}
	}
	return nil
}
