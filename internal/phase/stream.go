// The §3.3 scan over a stream of logically-ordered ticks: the one
// phase-extraction engine. Analyze feeds it from the streaming logical
// order over any event source (ExtractStreamTable from ticks already
// ordered); Extract feeds it from a Logical's tick table.
//
// The extractor keeps only the rows of the *open* window — the span
// since the last startpoint — because every decision the scan makes is
// local to it: the repeat detector is an epoch-cleared
// first-occurrence table (reset at every startpoint), occurrence
// durations come from a running completion-cut high-water mark, and
// the phase-table boundary counts come from per-process event counters
// snapshotted at window edges. Closed windows fold through the matcher
// (equality cache, fingerprint index, counting bound, early-exit
// scoring), so the streamed phase table is bit-identical to Extract +
// BuildTable.
//
// Representative behaviour matrices are the one per-phase state whose
// total size is not O(window). Under a memory budget they live in a
// spill store: an LRU-resident set backed by one CRC-checked file per
// phase (written through the internal/fsx seam), loaded back on demand
// when the matcher scores a candidate. Spilling changes *where* a
// matrix is read from, never its content, so the budget only affects
// speed and RSS.
package phase

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"pas2p/internal/fsx"
	"pas2p/internal/logical"
	"pas2p/internal/obs"
	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

// TickSource feeds logically-ordered ticks to the streaming extractor;
// logical.TickReader implements it. Next returns io.EOF after the last
// tick; the returned Tick may be scratch reused by the following call.
type TickSource interface {
	Next() (*logical.Tick, error)
}

// StreamConfig extends the similarity knobs with the out-of-core
// memory policy.
type StreamConfig struct {
	Config
	// MemBudgetBytes caps the bytes of representative behaviour
	// matrices held resident; matrices beyond it spill to disk and are
	// reloaded on demand. 0 disables spilling (everything stays
	// in-core, like Extract).
	MemBudgetBytes int64
	// FS and SpillDir locate the spill files. FS defaults to the real
	// filesystem; SpillDir is created if missing. With the default FS
	// an empty SpillDir gets a fresh temporary directory, which
	// StreamResult.Close removes; a custom FS needs a SpillDir.
	FS       fsx.FS
	SpillDir string
}

// StreamStats counts what the out-of-core machinery actually did.
type StreamStats struct {
	// Ticks is the logical length of the trace.
	Ticks int
	// SpilledPhases is how many distinct phase matrices were ever
	// written to the spill store.
	SpilledPhases int
	// SpillLoads is how many times a matrix was read back for scoring.
	SpillLoads int64
	// SpillBytes is the total bytes written to spill files.
	SpillBytes int64
}

// StreamResult is the outcome of one streaming extraction: the
// analysis (Logical is nil — the trace was never materialised), the
// phase table, and the spill statistics.
type StreamResult struct {
	Analysis *Analysis
	Table    *Table
	Stats    StreamStats
	store    *spillStore
}

// MaterializeCells populates Phase.Cells for every phase from the
// spill store (a no-op without a budget). It trades the memory bound
// away for in-core access — call it only when the matrices are needed,
// e.g. to compare analyses in tests.
func (r *StreamResult) MaterializeCells() error {
	if r.store == nil {
		return nil
	}
	return r.store.materialize()
}

// Close deletes the spill files, then the spill directory if that
// leaves it empty, as it always leaves a directory ExtractStreamTable
// made. The analysis and table stay valid; un-materialised Cells do
// not.
func (r *StreamResult) Close() error {
	if r.store == nil {
		return nil
	}
	return r.store.close()
}

// ctxCheckEvery is how many ticks pass between context checks.
const ctxCheckEvery = 1024

// ExtractStreamTable is Analyze's extraction and table derivation
// over a tick stream that is already logically ordered. meta is the
// source tracefile's header (app name, process count, base AET);
// warmOccurrence selects the designated occurrence exactly as
// BuildTable does.
func ExtractStreamTable(ctx context.Context, src TickSource, meta trace.Meta, warmOccurrence int, cfg StreamConfig) (*StreamResult, error) {
	return extractTable(ctx, src, func() trace.Meta { return meta }, warmOccurrence, cfg, nil)
}

// extractTable runs the §3.3 extraction and the phase-table derivation
// over a tick stream in one bounded-memory pass, recording the
// phase.extract and analyze.table spans; logf narrates as in Analyze.
// header returns the source's header: its process count is read
// before the scan, its app name and AET after it.
func extractTable(ctx context.Context, src TickSource, header func() trace.Meta, warmOccurrence int, cfg StreamConfig,
	logf func(format string, args ...any)) (*StreamResult, error) {
	meta := header()
	if err := cfg.Config.validate(); err != nil {
		return nil, err
	}
	if warmOccurrence < 0 {
		return nil, fmt.Errorf("phase: negative warm occurrence index")
	}
	if meta.Procs <= 0 {
		return nil, fmt.Errorf("phase: tracefile header declares %d processes", meta.Procs)
	}
	var store *spillStore
	if cfg.MemBudgetBytes > 0 {
		fs, dir := cfg.FS, cfg.SpillDir
		if fs == nil {
			fs = fsx.OS{}
		}
		var err error
		switch {
		case dir != "":
			err = fs.MkdirAll(dir, 0o755)
		case cfg.FS == nil:
			dir, err = os.MkdirTemp("", "pas2p-spill-*")
		default:
			return nil, fmt.Errorf("phase: memory budget set on a custom filesystem but no spill directory")
		}
		if err != nil {
			return nil, fmt.Errorf("phase: creating spill dir: %w", err)
		}
		store = &spillStore{fs: fs, dir: dir, budget: cfg.MemBudgetBytes,
			procs: meta.Procs, entries: map[int]*spillEntry{}}
	}
	sp := cfg.Observer.StartSpan("phase.extract")
	x := newStreamExtractor(cfg.Config, meta.Procs, store, warmOccurrence)
	x.logf = logf
	if err := x.scan(ctx, src); err != nil {
		sp.End()
		if store != nil {
			store.close()
		}
		return nil, err
	}
	meta = header()
	x.an.AET = meta.AET
	res := &StreamResult{Analysis: x.an, store: store}
	res.Stats.Ticks = x.nTicks
	if store != nil {
		res.Stats.SpilledPhases, res.Stats.SpillLoads, res.Stats.SpillBytes = store.spilled, store.loads, store.spillBytes
	}
	x.setCounters(sp)
	sp.SetCounter("spilled_phases", int64(res.Stats.SpilledPhases))
	sp.SetCounter("spill_loads", res.Stats.SpillLoads)
	sp.End()
	sp = cfg.Observer.StartSpan("analyze.table")
	res.Table = x.finishTable(meta)
	if sp != nil {
		// RelevantRows allocates; keep it off the nil-observer path.
		sp.SetCounter("relevant_phases", int64(len(res.Table.RelevantRows())))
	}
	sp.End()
	return res, nil
}

// logicalTicks replays a Logical's tick table as a TickSource. The
// events are stored grouped by process, so walking a tick's slots
// would read the event array with a stride; instead each chunk of
// ticks is filled process by process, reading every process's events
// in order. A process's events carry increasing LTs equal to their
// tick, and filling in ascending process order leaves each tick's
// slots in process order.
type logicalTicks struct {
	l      *logical.Logical
	per    [][]trace.Event // per-process events not yet filled
	buf    []logical.TickEvent
	off    []int // off[t-t0] is tick t's first slot in buf
	at     []int // fill cursor per tick of the chunk
	t0, t1 int   // the filled chunk's ticks
	next   int
	tick   logical.Tick
}

// tickChunk is how many ticks one fill covers.
const tickChunk = 32

func newLogicalTicks(l *logical.Logical) *logicalTicks {
	return &logicalTicks{l: l, per: l.Trace.PerProcess()}
}

func (s *logicalTicks) Next() (*logical.Tick, error) {
	if s.next >= s.l.NumTicks() {
		return nil, io.EOF
	}
	if s.next >= s.t1 {
		s.fill()
	}
	k := s.next - s.t0
	s.tick.Index = s.next
	s.tick.Slots = s.buf[s.off[k]:s.off[k+1]]
	s.next++
	return &s.tick, nil
}

// fill projects the ticks from next on, up to tickChunk of them, into
// buf.
func (s *logicalTicks) fill() {
	s.t0 = s.next
	s.t1 = min(s.t0+tickChunk, s.l.NumTicks())
	s.off = append(s.off[:0], 0)
	for t := s.t0; t < s.t1; t++ {
		s.off = append(s.off, s.off[len(s.off)-1]+len(s.l.Ticks[t]))
	}
	n := s.off[len(s.off)-1]
	s.buf = slices.Grow(s.buf[:0], n)[:n]
	s.at = append(s.at[:0], s.off...)
	for p, evs := range s.per {
		i := 0
		for ; i < len(evs) && evs[i].LT < int64(s.t1); i++ {
			e := &evs[i]
			k := int(e.LT) - s.t0
			s.buf[s.at[k]] = logical.TickEvent{Proc: int32(p), Sig: e.CommSignature(),
				Size: e.Size, Compute: e.ComputeBefore, Exit: e.Exit}
			s.at[k]++
		}
		s.per[p] = evs[i:]
	}
}

// occSnap freezes one occurrence's table-relevant view: its index
// within the phase, its tick window and the per-process event counts
// at its boundaries. Snapshots are immutable once taken.
type occSnap struct {
	idx                int
	startTick, endTick int
	startEv, endEv     []int64
	dur                vtime.Duration
}

// rowState accumulates, per phase, exactly what the streaming table
// builder needs to reproduce designate() without the occurrence list:
// the latest occurrence, the warm-index occurrence, and the first
// back-to-back pair at or past the warm index (frozen when its second
// half arrives — occurrences arrive in tick order, so the first pair
// seen is the first pair there is).
type rowState struct {
	lastSet  bool
	last     occSnap
	warmSet  bool
	warmSnap occSnap
	frozen   bool
	pairIdx  int
	pairOcc  occSnap
	pair2End []int64
	pair2Dur vtime.Duration
}

// cacheBuf is a per-tick-length stable copy target for the matcher's
// window-equality cache: the open window's rows are recycled at every
// restart, so a cached window must own its storage. One buffer per
// bucket suffices — setCache replaces the bucket's previous entry, and
// the copy happens strictly after the current window's cacheHit
// compare.
type cacheBuf struct {
	flat []Cell
	rows [][]Cell
}

type streamExtractor struct {
	cfg   Config
	procs int
	m     *matcher
	store *spillStore
	an    *Analysis
	err   error
	logf  func(format string, args ...any) // Fig. 6 narration; nil = silent

	// Open-window state: rows buffered since the current startpoint.
	start     int
	cutStart  vtime.Time   // completion cut at the startpoint
	hw        vtime.Time   // running completion-cut high-water mark
	rows      [][]Cell     // behaviour rows for ticks [start, t)
	rowExit   []vtime.Time // per-row max event exit
	rowEvents []int        // per-row present-cell count
	rowPool   [][]Cell     // recycled row storage
	ft        firstTable

	// Per-process event counters for table boundaries: cum counts all
	// consumed ticks, baseCounts is cum frozen at the startpoint.
	baseCounts []int64
	cum        []int64

	// warm is the table's warm-occurrence index; negative means no
	// table is built (rstate stays empty).
	warm      int
	rstate    []*rowState // indexed by phase ID-1
	cacheBufs map[int]*cacheBuf

	nTicks, nEvents int
}

// newStreamExtractor prepares a scan over procs processes. A nil store
// keeps every behaviour matrix resident; a negative warm skips the
// phase-table bookkeeping.
func newStreamExtractor(cfg Config, procs int, store *spillStore, warm int) *streamExtractor {
	x := &streamExtractor{
		cfg:        cfg,
		procs:      procs,
		m:          newMatcher(cfg),
		store:      store,
		an:         &Analysis{Config: cfg},
		warm:       warm,
		baseCounts: make([]int64, procs),
		cum:        make([]int64, procs),
		cacheBufs:  map[int]*cacheBuf{},
	}
	if store != nil {
		x.m.cellsOf = store.cells
	}
	x.ft.init(512)
	return x
}

// scan ingests every tick of src, then closes the trailing window.
// ctx, when non-nil, is checked every ctxCheckEvery ticks.
func (x *streamExtractor) scan(ctx context.Context, src TickSource) error {
	for i := 0; ; i++ {
		if i%ctxCheckEvery == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		tk, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		x.ingest(tk)
		if x.err != nil {
			return x.err
		}
	}
	if x.nTicks == 0 {
		return fmt.Errorf("phase: empty logical trace")
	}
	x.an.Ticks = x.nTicks
	x.closeWindow(x.start, x.nTicks)
	return x.err
}

// setCounters records the scan's work counts on its span.
func (x *streamExtractor) setCounters(sp *obs.Span) {
	sp.SetCounter("ticks", int64(x.nTicks))
	sp.SetCounter("events", int64(x.nEvents))
	sp.SetCounter("phases_found", int64(len(x.an.Phases)))
	sp.SetCounter("windows_scored", x.m.nScored)
	sp.SetCounter("windows_pruned", x.m.nPruned)
	sp.SetCounter("window_cache_hits", x.m.nCacheHits)
}

// ingest advances the scan by one tick: repeat-scan it, close windows
// if it repeats, then append its row to the open window.
func (x *streamExtractor) ingest(tk *logical.Tick) {
	t := tk.Index
	repeatFirst := -1
	for _, sl := range tk.Slots {
		if f := x.ft.insertOrGet(sl.Sig, sl.Proc, t); f >= 0 && (repeatFirst < 0 || f < repeatFirst) {
			repeatFirst = f
		}
	}
	if repeatFirst >= 0 {
		// Narration is guarded at each call: ...any args heap-box.
		if repeatFirst == x.start {
			// Step 4a: one full period [start, t).
			if x.logf != nil {
				x.logf("tick %d: repeat of the startpoint event -> step 4a, close phase [%d,%d)", t, x.start, t)
			}
			x.closeWindow(x.start, t)
		} else {
			// Step 4b: partition into phase a and phase b.
			if x.logf != nil {
				x.logf("tick %d: repeat of tick-%d event -> step 4b, partition into [%d,%d) and [%d,%d)",
					t, repeatFirst, x.start, repeatFirst, repeatFirst, t)
			}
			x.closeWindow(x.start, repeatFirst)
			x.closeWindow(repeatFirst, t)
		}
		if x.err != nil {
			return
		}
		// Step 6: new startpoint at t; the repeated event opens the new
		// window.
		if x.logf != nil {
			x.logf("tick %d: new startpoint (step 6)", t)
		}
		x.rowPool = append(x.rowPool, x.rows...)
		x.rows = x.rows[:0]
		x.rowExit = x.rowExit[:0]
		x.rowEvents = x.rowEvents[:0]
		x.start = t
		x.cutStart = x.hw
		copy(x.baseCounts, x.cum)
		x.ft.reset()
		for _, sl := range tk.Slots {
			x.ft.insertOrGet(sl.Sig, sl.Proc, t)
		}
	}
	var row []Cell
	if n := len(x.rowPool); n > 0 {
		row = x.rowPool[n-1]
		x.rowPool[n-1] = nil
		x.rowPool = x.rowPool[:n-1]
		clear(row)
	} else {
		row = make([]Cell, x.procs)
	}
	var exitMax vtime.Time
	for _, sl := range tk.Slots {
		row[sl.Proc] = Cell{Present: true, Sig: sl.Sig, Size: sl.Size, Compute: sl.Compute}
		if sl.Exit > exitMax {
			exitMax = sl.Exit
		}
		x.cum[sl.Proc]++
	}
	x.rows = append(x.rows, row)
	x.rowExit = append(x.rowExit, exitMax)
	x.rowEvents = append(x.rowEvents, len(tk.Slots))
	if exitMax > x.hw {
		x.hw = exitMax
	}
	x.nTicks++
	x.nEvents += len(tk.Slots)
}

// cutAt returns the completion cut at window boundary b (start <= b <=
// current tick): the running max of event exits over all ticks < b.
func (x *streamExtractor) cutAt(b int) vtime.Time {
	c := x.cutStart
	for _, e := range x.rowExit[:b-x.start] {
		if e > c {
			c = e
		}
	}
	return c
}

// countsAt returns, per process, how many events precede window
// boundary b — the same numbers BuildTable's eventsBefore binary
// search yields, counted incrementally.
func (x *streamExtractor) countsAt(b int) []int64 {
	out := make([]int64, x.procs)
	if b-x.start >= len(x.rows) {
		copy(out, x.cum)
		return out
	}
	copy(out, x.baseCounts)
	for _, row := range x.rows[:b-x.start] {
		for p := range row {
			if row[p].Present {
				out[p]++
			}
		}
	}
	return out
}

// closeWindow folds [s,e) through the matching engine: the
// window-equality cache first, then the fingerprint index. A window
// that becomes a new phase gets its cells copied out, since the open
// window's rows are recycled. The occurrence is then snapshotted for
// the table.
func (x *streamExtractor) closeWindow(s, e int) {
	if e <= s {
		return
	}
	cells := x.rows[s-x.start : e-x.start : e-x.start]
	events := 0
	for _, n := range x.rowEvents[s-x.start : e-x.start] {
		events += n
	}
	occ := Occurrence{StartTick: s, EndTick: e, Dur: x.cutAt(e).Sub(x.cutAt(s))}
	var ph *Phase
	if match := x.m.cacheHit(cells, events); match != nil {
		ph = match
	} else if match := x.m.match(cells, events); match != nil {
		x.setCacheCopy(cells, events, match)
		ph = match
	}
	if ph != nil {
		ph.Occurrences = append(ph.Occurrences, occ)
		if x.logf != nil {
			x.logf("  window [%d,%d) similar to phase %d -> weight %d (step 5)", s, e, ph.ID, ph.Weight())
		}
	} else {
		owned := copyCells(cells)
		np := &Phase{
			ID:          len(x.an.Phases) + 1,
			TickLen:     len(cells),
			Events:      events,
			Occurrences: []Occurrence{occ},
		}
		x.an.Phases = append(x.an.Phases, np)
		x.m.addCurrent(np, owned)
		x.m.setCache(owned, events, np)
		if x.store != nil {
			x.store.adopt(np, owned)
		} else {
			np.Cells = owned
		}
		if x.warm >= 0 {
			x.rstate = append(x.rstate, &rowState{})
		}
		if x.logf != nil {
			x.logf("  window [%d,%d) is new -> phase %d (%d events)", s, e, np.ID, events)
		}
		ph = np
	}
	if x.store != nil {
		if err := x.store.firstErr; err != nil {
			x.err = err
			return
		}
	}
	if x.warm >= 0 {
		x.noteOccurrence(ph, occ)
	}
}

// setCacheCopy stores the window in the matcher's equality cache
// through the bucket's stable buffer (live rows recycle at restarts).
func (x *streamExtractor) setCacheCopy(cells [][]Cell, events int, p *Phase) {
	L := len(cells)
	b := x.cacheBufs[L]
	if b == nil {
		flat := make([]Cell, L*x.procs)
		b = &cacheBuf{flat: flat, rows: make([][]Cell, L)}
		for t := range b.rows {
			b.rows[t] = flat[t*x.procs : (t+1)*x.procs : (t+1)*x.procs]
		}
		x.cacheBufs[L] = b
	}
	for t, row := range cells {
		copy(b.rows[t], row)
	}
	x.m.setCache(b.rows, events, p)
}

// noteOccurrence feeds the streaming table builder: remember the warm
// occurrence, the latest one, and freeze the designated back-to-back
// pair the moment its second half arrives. A frozen row is final
// (freezing needs an occurrence at or past the warm index), so later
// occurrences take no snapshot.
func (x *streamExtractor) noteOccurrence(ph *Phase, occ Occurrence) {
	rs := x.rstate[ph.ID-1]
	if rs.frozen {
		return
	}
	k := len(ph.Occurrences) - 1
	snap := occSnap{
		idx: k, startTick: occ.StartTick, endTick: occ.EndTick,
		startEv: x.countsAt(occ.StartTick), endEv: x.countsAt(occ.EndTick),
		dur: occ.Dur,
	}
	if rs.lastSet && rs.last.idx >= x.warm && rs.last.endTick == occ.StartTick {
		rs.frozen = true
		rs.pairIdx = rs.last.idx
		rs.pairOcc = rs.last
		rs.pair2End = snap.endEv
		rs.pair2Dur = occ.Dur
	}
	if k == x.warm {
		rs.warmSet = true
		rs.warmSnap = snap
	}
	rs.last = snap
	rs.lastSet = true
}

// finishTable assembles the phase table from the per-phase snapshots.
// The designation rule is exactly BuildTable's designate(): the warm
// index clamped to the last occurrence, advanced to the first
// back-to-back pair at or past it.
func (x *streamExtractor) finishTable(meta trace.Meta) *Table {
	relevant := map[int]bool{}
	for _, p := range x.an.Relevant() {
		relevant[p.ID] = true
	}
	tb := &Table{
		AppName:     meta.AppName,
		Procs:       x.procs,
		BaseAET:     x.an.AET,
		TotalPhases: len(x.an.Phases),
	}
	for _, p := range x.an.Phases {
		rs := x.rstate[p.ID-1]
		var snap occSnap
		switch {
		case rs.frozen:
			snap = rs.pairOcc
		case len(p.Occurrences)-1 < x.warm:
			snap = rs.last
		default:
			snap = rs.warmSnap
		}
		row := TableRow{
			PhaseID:     p.ID,
			Weight:      p.Weight(),
			PhaseET:     p.MeanET(),
			Relevant:    relevant[p.ID],
			Occurrence:  snap.idx,
			StartTick:   snap.startTick,
			EndTick:     snap.endTick,
			StartEvents: snap.startEv,
			EndEvents:   snap.endEv,
		}
		if rs.frozen {
			row.HasPair = true
			row.End2Events = rs.pair2End
			row.ETScale = etScaleFor(row.PhaseET, rs.pair2Dur)
		}
		tb.Rows = append(tb.Rows, row)
	}
	return tb
}

// --- spill store ---

// spillCellBytes is the on-disk size of one cell: present flag,
// signature, size, compute time.
const spillCellBytes = 1 + 8 + 8 + 8

// residentCellBytes estimates one cell's in-memory footprint for the
// budget accounting.
const residentCellBytes = 32

// spillTable is the Castagnoli table the spill codec shares with the
// tracefile format.
var spillTable = crc32.MakeTable(crc32.Castagnoli)

type spillEntry struct {
	ph      *Phase
	cells   [][]Cell // nil while evicted
	bytes   int64
	lastSeq int64
	onDisk  bool
}

// spillStore owns every phase's representative matrix during a
// budgeted extraction: a resident set with LRU eviction to one
// CRC-checked file per phase. Phase.Cells stays nil throughout — all
// access funnels through cells().
type spillStore struct {
	fs     fsx.FS
	dir    string
	budget int64
	procs  int

	entries    map[int]*spillEntry
	resident   int64
	seq        int64
	firstErr   error
	spilled    int
	loads      int64
	spillBytes int64
}

func (s *spillStore) path(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("phase-%06d.cells", id))
}

// adopt takes ownership of a freshly discovered phase's matrix.
func (s *spillStore) adopt(p *Phase, cells [][]Cell) {
	s.seq++
	e := &spillEntry{ph: p, cells: cells,
		bytes: int64(p.TickLen) * int64(s.procs) * residentCellBytes, lastSeq: s.seq}
	s.entries[p.ID] = e
	s.resident += e.bytes
	s.evict(p.ID)
}

// cells returns a phase's matrix for scoring, loading it from the
// spill file if it was evicted. On I/O error it records the error and
// returns an all-absent matrix of the right shape so the caller's scan
// stays in bounds (the extraction aborts at the next error check).
func (s *spillStore) cells(p *Phase) [][]Cell {
	e := s.entries[p.ID]
	if e == nil {
		s.fail(fmt.Errorf("phase: spill store has no entry for phase %d", p.ID))
		return zeroCells(p.TickLen, s.procs)
	}
	s.seq++
	e.lastSeq = s.seq
	if e.cells != nil {
		return e.cells
	}
	cells, err := s.load(p)
	if err != nil {
		s.fail(err)
		return zeroCells(p.TickLen, s.procs)
	}
	s.loads++
	e.cells = cells
	s.resident += e.bytes
	s.evict(p.ID)
	return cells
}

// evict spills least-recently-used matrices until the resident set
// fits the budget, never touching excludeID (the entry being served).
func (s *spillStore) evict(excludeID int) {
	for s.resident > s.budget {
		var victim *spillEntry
		vid := -1
		for id, e := range s.entries {
			if id == excludeID || e.cells == nil {
				continue
			}
			if victim == nil || e.lastSeq < victim.lastSeq {
				victim, vid = e, id
			}
		}
		if victim == nil {
			return
		}
		if !victim.onDisk {
			data := encodeSpill(victim.cells)
			if err := s.writeFile(s.path(vid), data); err != nil {
				s.fail(err)
				return
			}
			victim.onDisk = true
			s.spilled++
			s.spillBytes += int64(len(data))
		}
		victim.cells = nil
		s.resident -= victim.bytes
	}
}

func (s *spillStore) writeFile(path string, data []byte) error {
	f, err := s.fs.Create(path)
	if err != nil {
		return fmt.Errorf("phase: creating spill file: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("phase: writing %s: %w", path, err)
	}
	// Spill files are scratch, not durable artefacts: a crash reruns
	// the analysis, so no Sync before Close.
	if err := f.Close(); err != nil {
		return fmt.Errorf("phase: closing %s: %w", path, err)
	}
	return nil
}

// load reads a phase's matrix back, verifying shape and checksum.
func (s *spillStore) load(p *Phase) ([][]Cell, error) {
	data, err := s.fs.ReadFile(s.path(p.ID))
	if err != nil {
		return nil, fmt.Errorf("phase: reading spilled matrix of phase %d: %w", p.ID, err)
	}
	return decodeSpill(data, p.ID, p.TickLen, s.procs)
}

// fail records the first error; later calls keep it.
func (s *spillStore) fail(err error) {
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// materialize sets Phase.Cells on every phase, loading evicted
// matrices from disk. The budget is no longer enforced afterwards.
func (s *spillStore) materialize() error {
	if s.firstErr != nil {
		return s.firstErr
	}
	for _, e := range s.entries {
		if e.cells == nil {
			cells, err := s.load(e.ph)
			if err != nil {
				return err
			}
			e.cells = cells
			s.resident += e.bytes
		}
		e.ph.Cells = e.cells
	}
	return nil
}

// close removes the spill files and the directory (best effort on the
// directory: it may hold unrelated files).
func (s *spillStore) close() error {
	var first error
	for id, e := range s.entries {
		if !e.onDisk {
			continue
		}
		if err := s.fs.Remove(s.path(id)); err != nil && first == nil {
			first = err
		}
		e.onDisk = false
	}
	s.fs.Remove(s.dir)
	return first
}

func zeroCells(tickLen, procs int) [][]Cell {
	flat := make([]Cell, tickLen*procs)
	out := make([][]Cell, tickLen)
	for t := range out {
		out[t] = flat[t*procs : (t+1)*procs : (t+1)*procs]
	}
	return out
}

// encodeSpill serialises a matrix: tick length, process count, the
// cells row-major, and a trailing CRC32C over everything before it.
func encodeSpill(cells [][]Cell) []byte {
	tickLen := len(cells)
	procs := 0
	if tickLen > 0 {
		procs = len(cells[0])
	}
	buf := make([]byte, 8+tickLen*procs*spillCellBytes+4)
	binary.LittleEndian.PutUint32(buf[0:], uint32(tickLen))
	binary.LittleEndian.PutUint32(buf[4:], uint32(procs))
	off := 8
	for _, row := range cells {
		for i := range row {
			c := &row[i]
			if c.Present {
				buf[off] = 1
			}
			binary.LittleEndian.PutUint64(buf[off+1:], c.Sig)
			binary.LittleEndian.PutUint64(buf[off+9:], uint64(c.Size))
			binary.LittleEndian.PutUint64(buf[off+17:], uint64(c.Compute))
			off += spillCellBytes
		}
	}
	binary.LittleEndian.PutUint32(buf[off:], crc32.Checksum(buf[:off], spillTable))
	return buf
}

// decodeSpill parses and verifies a spilled matrix against the shape
// the phase declares.
func decodeSpill(data []byte, id, tickLen, procs int) ([][]Cell, error) {
	want := 8 + tickLen*procs*spillCellBytes + 4
	if len(data) != want {
		return nil, fmt.Errorf("phase: spilled matrix of phase %d is %d bytes, want %d", id, len(data), want)
	}
	if got, wantLen := binary.LittleEndian.Uint32(data[0:]), uint32(tickLen); got != wantLen {
		return nil, fmt.Errorf("phase: spilled matrix of phase %d declares tick length %d, phase has %d", id, got, wantLen)
	}
	if got := binary.LittleEndian.Uint32(data[4:]); got != uint32(procs) {
		return nil, fmt.Errorf("phase: spilled matrix of phase %d declares %d processes, trace has %d", id, got, procs)
	}
	body := data[:len(data)-4]
	crc := crc32.Checksum(body, spillTable)
	if got := binary.LittleEndian.Uint32(data[len(data)-4:]); got != crc {
		return nil, fmt.Errorf("phase: spilled matrix of phase %d checksum mismatch (stored %08x, computed %08x)", id, got, crc)
	}
	out := zeroCells(tickLen, procs)
	off := 8
	for _, row := range out {
		for i := range row {
			row[i] = Cell{
				Present: data[off] != 0,
				Sig:     binary.LittleEndian.Uint64(data[off+1:]),
				Size:    int64(binary.LittleEndian.Uint64(data[off+9:])),
				Compute: vtime.Duration(binary.LittleEndian.Uint64(data[off+17:])),
			}
			off += spillCellBytes
		}
	}
	return out, nil
}
