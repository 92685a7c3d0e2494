package logical

// Streaming logical order: the one PAS2P ordering engine. Order
// drains it over an in-memory trace into a Logical; stage A
// (phase.Analyze) feeds it straight into the phase scan, over any
// event source: a traced run's recording, a v2 tracefile's rank
// streams read in place, or a decoded trace.
//
// The paper's order assigns LTs with the Table 1 queue algorithm,
// normalises them (receive-run permutation, monotone clamp) and ranks
// the global (LT, sub) key set into ticks. StreamOrder produces that
// tick sequence without ever holding more than O(procs + frontier)
// events:
//
//   - events are pulled lazily from an EventSource (trace.RankStreams
//     over a v2 file, trace.RecordingDrain over a traced run's
//     recording, while the run records it or after, or
//     SourceFromTrace), which need not know its event count before
//     its streams end; each queue pop assigns
//     one process a run of events, until a receive whose send is not
//     yet known, a collective, the end of its stream or runBound, so
//     consecutive reads stay in one process's stream. LTs do not depend
//     on visit order (a send gets hw+1, a receive LT(send)+1, a
//     collective max(member hw)+1), so runs leave every LT as the
//     one-event-per-pop queue algorithm assigns it;
//   - a process's current event lives in a one-slot head buffer, and
//     each matched send's LT is taken from the send table once its
//     receive consumes it (valid traces pair them 1:1, so the table
//     holds only the unmatched frontier, and a second receive of one
//     send stalls);
//   - the permutation + clamp + sub-numbering passes are per-process
//     local, so they run incrementally as events are assigned: receives
//     append to the process's queue past its finalised mark, any
//     non-receive (or end of stream) flushes that run with an in-place
//     stable sort by LT, and the running clamp and collision counter
//     finalise each event's (LT, sub) key;
//   - finalised events feed per-process FIFO queues merged through a
//     winner tree. Per process the key sequence is strictly increasing,
//     so the global minimum visits every distinct key exactly once in
//     sorted order — which is precisely a sort-and-rank of the keys —
//     and each tick gathers every process whose head holds the minimum,
//     in process order.
//
// A process with no finalised event bounds the merge with (lastLT,
// lastSub+1): the clamp guarantees its next key cannot be smaller, so
// its tree leaf holds that bound, ordered before an equal head, and a
// tick is emitted only when the tree's minimum is a head, that is when
// every silent process provably cannot join it. That is what makes the
// output deterministic and independent of I/O interleaving.

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

// ErrNoOrder is matched (errors.Is) by every error the order returns
// because the trace has no PAS2P logical order: it is empty, its
// streams disagree with its header, or its relations never resolve (a
// receive whose send never comes, a collective a process never
// reaches, an unknown event kind).
var ErrNoOrder = errors.New("trace has no logical order")

// noOrderError carries an order failure's message and matches
// ErrNoOrder without adding it to the text.
type noOrderError struct{ error }

func (e noOrderError) Is(target error) bool { return target == ErrNoOrder }
func (e noOrderError) Unwrap() error        { return e.error }

func noOrderf(format string, args ...any) error {
	return noOrderError{fmt.Errorf(format, args...)}
}

// EventSource feeds per-process event streams to StreamOrder. Process
// streams must be in per-process program order (what PerProcess or a
// rank cursor yields). trace.RankStreams implements it over a v2
// tracefile and trace.RecordingDrain over a traced run's recording.
type EventSource interface {
	// Meta returns the source's header. Its process count is read
	// first; its event count and AET only once every stream has
	// ended, so a source may fix them as late as that.
	Meta() trace.Meta
	// NextEvent copies process p's next event into dst; false with nil
	// error means the stream is exhausted.
	NextEvent(p int, dst *trace.Event) (bool, error)
}

// traceSource adapts an in-memory trace to EventSource; Order reads
// its per-process slices back by source position.
type traceSource struct {
	meta trace.Meta
	per  [][]trace.Event
	pos  []int
}

// SourceFromTrace wraps an in-memory trace as an EventSource. The
// trace is not modified. A nil or empty trace, or one declaring no
// processes, yields a source StreamOrder rejects.
func SourceFromTrace(tr *trace.Trace) EventSource { return newTraceSource(tr) }

func newTraceSource(tr *trace.Trace) *traceSource {
	if tr == nil {
		return &traceSource{}
	}
	s := &traceSource{meta: tr.Meta()}
	if tr.Procs > 0 {
		s.per = tr.PerProcess()
		s.pos = make([]int, tr.Procs)
	}
	return s
}

func (s *traceSource) Meta() trace.Meta { return s.meta }
func (s *traceSource) NextEvent(p int, dst *trace.Event) (bool, error) {
	if s.pos[p] >= len(s.per[p]) {
		return false, nil
	}
	*dst = s.per[p][s.pos[p]]
	s.pos[p]++
	return true, nil
}

// TickEvent is one process's event at a tick, reduced to what the
// downstream phase stage consumes (the communication signature and the
// behaviour-cell payload) plus where the event came from.
type TickEvent struct {
	Proc    int32
	Sig     uint64
	Size    int64
	Compute vtime.Duration
	Exit    vtime.Time
	// Pos is the event's index in its process's EventSource stream,
	// before the receive-run permutation.
	Pos int
}

// Tick is one logically-ordered time unit: at least one event, at most
// one per process, slots in ascending process order. Index is the
// final tick number (the Logical tick index Order builds).
type Tick struct {
	Index int
	Slots []TickEvent
}

// pendEvent is an assigned event moving through the finalisation
// pipeline: raw LT from assignment, then clamped LT plus collision
// index once finalised.
type pendEvent struct {
	lt      int64
	sub     int32
	pos     int
	sig     uint64
	size    int64
	compute vtime.Duration
	exit    vtime.Time
}

// mergeKey is one winner-tree entry: the least key a process can still
// emit. It is the process's finalised head (lt, sub), or, while it has
// none, its clamp bound (lastLT, lastSub+1), which sorts before an
// equal head because that head may yet arrive; a finished process
// holds finished. The low bit of sk tells a head (1) from a bound (0).
type mergeKey struct {
	lt int64
	sk int64 // sub<<1 | 1 for a head, sub<<1 for a bound
}

// finished sorts after every key and is never a head, so a process
// holding it neither pops nor blocks.
var finished = mergeKey{math.MaxInt64, math.MaxInt64 - 1}

func (k mergeKey) head() bool { return k.sk&1 == 1 }

func minKey(a, b mergeKey) mergeKey {
	if b.lt < a.lt || b.lt == a.lt && b.sk < a.sk {
		return b
	}
	return a
}

// runBound caps how many events one queue pop assigns to a process, so
// one process cannot run arbitrarily far ahead of the merge. Over lu
// classD at 128 ranks, stage A (phase.Analyze) took the same time with
// bounds of 16, 64 and 1024, and about a third longer with 4.
const runBound = 64

// TickReader streams the PAS2P logical order tick by tick. Obtain one
// from StreamOrder; Next returns io.EOF after the last tick. The
// returned Tick (and its Slots) is scratch reused by the following
// call.
type TickReader struct {
	src    trace.Meta
	source EventSource
	procs  int
	err    error

	// --- Table 1 queue-algorithm state ---
	queue []int32
	qHead int
	next  []uint64 // events consumed per process
	// head[p] holds process p's next event while headOK[p]; a read
	// that finds p's stream ended sets procDone[p], and ended counts
	// those.
	head       []trace.Event
	headOK     []bool
	hw         []int64
	sends      *sendTable
	collWaits  map[[2]int64]*collWait
	parked     []bool
	visits     int
	assigned   uint64
	ended      int
	assignDone bool

	// --- finalisation pipeline ---
	lastLT  []int64
	lastSub []int32
	// mq[p][mqHead[p]:fin[p]] is process p's finalised FIFO;
	// mq[p][fin[p]:] is its open receive run, not yet finalised.
	mq       [][]pendEvent
	mqHead   []int
	fin      []int
	procDone []bool

	// --- merge: a winner tree over the processes' mergeKeys ---
	// tree[leaves+p] is process p's key (padding leaves hold finished);
	// tree[i] is the minimum of tree[2i] and tree[2i+1]; tree[1] is the
	// root.
	tree   []mergeKey
	leaves int

	// --- output ---
	tickNo int
	tick   Tick
}

type collWait struct {
	arrived int
	procs   []int32
}

// StreamOrder begins streaming the PAS2P logical order over src. It
// reads each process's first event; later reads, and their errors,
// come from Next. The source's event count is checked once every
// stream has ended.
func StreamOrder(src EventSource) (*TickReader, error) {
	meta := src.Meta()
	if meta.Procs <= 0 {
		return nil, noOrderf("logical: trace %q declares %d processes", meta.AppName, meta.Procs)
	}
	procs := meta.Procs
	leaves := 1
	for leaves < procs {
		leaves *= 2
	}
	r := &TickReader{
		src: meta, source: src, procs: procs,
		next:      make([]uint64, procs),
		head:      make([]trace.Event, procs),
		headOK:    make([]bool, procs),
		hw:        make([]int64, procs),
		sends:     newSendTable(procs),
		collWaits: map[[2]int64]*collWait{},
		parked:    make([]bool, procs),
		lastLT:    make([]int64, procs),
		lastSub:   make([]int32, procs),
		mq:        make([][]pendEvent, procs),
		mqHead:    make([]int, procs),
		fin:       make([]int, procs),
		procDone:  make([]bool, procs),
		tree:      make([]mergeKey, 2*leaves),
		leaves:    leaves,
	}
	for p := 0; p < procs; p++ {
		r.hw[p] = -1
		r.lastLT[p] = -1
		r.lastSub[p] = -1
		ok, err := r.loadHead(int32(p))
		if err != nil {
			return nil, err
		}
		if ok {
			r.queue = append(r.queue, int32(p))
		}
	}
	if r.ended == procs {
		if err := r.finishAssign(); err != nil {
			return nil, err
		}
	}
	for i := leaves; i < 2*leaves; i++ {
		r.tree[i] = finished
		if p := i - leaves; p < procs {
			r.tree[i] = r.leafKey(p)
		}
	}
	for i := leaves - 1; i >= 1; i-- {
		r.tree[i] = minKey(r.tree[2*i], r.tree[2*i+1])
	}
	return r, nil
}

// Meta returns the source's header: as StreamOrder read it, and the
// source's final one once every stream has ended.
func (r *TickReader) Meta() trace.Meta { return r.src }

// qlen is the number of pending queue entries.
func (r *TickReader) qlen() int { return len(r.queue) - r.qHead }

func (r *TickReader) qpop() int32 {
	p := r.queue[r.qHead]
	r.qHead++
	if r.qHead > 1024 && r.qHead*2 >= len(r.queue) {
		n := copy(r.queue, r.queue[r.qHead:])
		r.queue = r.queue[:n]
		r.qHead = 0
	}
	return p
}

func (r *TickReader) qpush(p int32) { r.queue = append(r.queue, p) }

// loadHead ensures process p's next event is in its head slot.
// Returns false when p's stream has ended: p is then done, and its
// open receive run is finalised.
func (r *TickReader) loadHead(p int32) (bool, error) {
	if r.headOK[p] {
		return true, nil
	}
	ok, err := r.source.NextEvent(int(p), &r.head[p])
	if err != nil || !ok {
		if err == nil {
			r.procDone[p] = true
			r.ended++
			r.flushRun(p)
			r.updateLeaf(int(p))
		}
		return false, err
	}
	r.headOK[p] = true
	return true, nil
}

// step runs one queue pop: it assigns the popped process's events
// until a receive's send is not yet known (the process is requeued), a
// collective arrives (the process parks, or the collective completes
// and every member is requeued), the stream ends, or runBound events
// are assigned (requeued).
func (r *TickReader) step() error {
	if r.qlen() == 0 {
		return noOrderf("logical: trace %q stalls with %d/%d events assigned (inconsistent relations)",
			r.src.AppName, r.assigned, r.source.Meta().Events)
	}
	p := r.qpop()
	for n := 0; n < runBound; n++ {
		ok, err := r.loadHead(p)
		if err != nil || !ok {
			return err
		}
		e := &r.head[p]
		switch e.Kind {
		case trace.Send:
			lt := r.hw[p] + 1
			r.hw[p] = lt
			r.sends.put(p, lt)
			r.visits = 0
			r.consume(p, lt)
		case trace.Recv:
			slt, ok := r.sends.take(e.RelA, e.RelB)
			if !ok {
				r.qpush(p)
				r.visits++
				if r.visits > r.qlen() {
					return noOrderf("logical: trace %q: full pass over %d pending procs made no progress; receive on proc %d references send (%d,%d) that never resolves",
						r.src.AppName, r.qlen(), p, e.RelA, e.RelB)
				}
				return nil
			}
			lt := slt + 1
			if lt > r.hw[p] {
				r.hw[p] = lt
			}
			r.visits = 0
			r.consume(p, lt)
		case trace.Collective:
			r.arrive(p, e)
			return nil
		default:
			return noOrderf("logical: trace %q: unknown event kind %d", r.src.AppName, e.Kind)
		}
	}
	r.qpush(p)
	return nil
}

// arrive records process p's arrival at the collective in its head
// slot. Before the last arrival p parks, its head loaded; the last one
// assigns every member max(member hw)+1 and requeues the members with
// events left.
func (r *TickReader) arrive(p int32, e *trace.Event) {
	r.visits = 0
	key := [2]int64{e.RelA, e.RelB}
	cw := r.collWaits[key]
	if cw == nil {
		cw = &collWait{}
		r.collWaits[key] = cw
	}
	cw.arrived++
	cw.procs = append(cw.procs, p)
	if cw.arrived < int(e.Involved) {
		r.parked[p] = true
		return
	}
	var maxLT int64 = -1
	for _, m := range cw.procs {
		if r.hw[m] > maxLT {
			maxLT = r.hw[m]
		}
	}
	lt := maxLT + 1
	delete(r.collWaits, key)
	for _, m := range cw.procs {
		r.hw[m] = lt
		r.parked[m] = false
		r.consume(m, lt)
		r.qpush(m)
	}
}

// consume hands process p's head event, assigned LT lt, to the
// finalisation pipeline and frees the head slot. A receive joins the
// open run; anything else closes it and is finalised behind it.
func (r *TickReader) consume(p int32, lt int64) {
	e := &r.head[p]
	recv := e.Kind == trace.Recv
	if !recv {
		r.flushRun(p)
	}
	r.mq[p] = append(r.mq[p], pendEvent{lt: lt, pos: int(r.next[p]), sig: e.CommSignature(),
		size: e.Size, compute: e.ComputeBefore, exit: e.Exit})
	r.headOK[p] = false
	r.next[p]++
	r.assigned++
	if !recv {
		r.flushRun(p)
	}
}

// flushRun finalises process p's open run, mq[p][fin[p]:]: the paper's
// permutation inside the LTRecvs (a stable sort by LT, as
// permuteRecvRuns does for the Lamport order), then the running
// monotone clamp and collision numbering (what clampMonotone and
// buildTicks do for the Lamport order), in place.
func (r *TickReader) flushRun(p int32) {
	q, f := r.mq[p], r.fin[p]
	if f == len(q) {
		return
	}
	run := q[f:]
	if len(run) > 1 {
		slices.SortStableFunc(run, func(a, b pendEvent) int { return cmp.Compare(a.lt, b.lt) })
	}
	lastLT, lastSub := r.lastLT[p], r.lastSub[p]
	for i := range run {
		pe := &run[i]
		if pe.lt < lastLT {
			pe.lt = lastLT
		}
		if pe.lt == lastLT {
			pe.sub = lastSub + 1
		} else {
			pe.sub = 0
		}
		lastLT, lastSub = pe.lt, pe.sub
	}
	r.lastLT[p], r.lastSub[p] = lastLT, lastSub
	r.fin[p] = len(q)
	if r.mqHead[p] == f {
		r.updateLeaf(int(p)) // a head appeared
	}
}

// leafKey is process p's current mergeKey.
func (r *TickReader) leafKey(p int) mergeKey {
	switch {
	case r.mqHead[p] < r.fin[p]:
		h := &r.mq[p][r.mqHead[p]]
		return mergeKey{h.lt, int64(h.sub)<<1 | 1}
	case r.procDone[p]:
		return finished
	default:
		return mergeKey{r.lastLT[p], int64(r.lastSub[p]+1) << 1}
	}
}

// updateLeaf refreshes process p's leaf and the minima above it,
// stopping at the first that does not change.
func (r *TickReader) updateLeaf(p int) {
	i := r.leaves + p
	r.tree[i] = r.leafKey(p)
	for i > 1 {
		i >>= 1
		m := minKey(r.tree[2*i], r.tree[2*i+1])
		if m == r.tree[i] {
			return
		}
		r.tree[i] = m
	}
}

// finishAssign runs the post-loop checks once every stream has ended
// and every event is assigned: the source's final header must count
// those events.
func (r *TickReader) finishAssign() error {
	for p, pk := range r.parked {
		if pk {
			return noOrderf("logical: trace %q: proc %d parked at a collective forever", r.src.AppName, p)
		}
	}
	r.src = r.source.Meta()
	if r.assigned == 0 {
		return noOrderf("logical: empty trace")
	}
	if r.assigned != r.src.Events {
		return noOrderf("logical: source counts %d events across processes, header declares %d",
			r.assigned, r.src.Events)
	}
	r.assignDone = true
	return nil
}

// tryPop emits the next tick when the tree's minimum is a finalised
// head: then no process, silent ones included, can still produce a
// smaller or equal key. The tick holds every process whose head equals
// that minimum, in process order.
func (r *TickReader) tryPop() (*Tick, bool) {
	k := r.tree[1]
	if !k.head() {
		return nil, false
	}
	r.tick.Index = r.tickNo
	r.tick.Slots = r.tick.Slots[:0]
	r.gather(1, k)
	r.tickNo++
	return &r.tick, true
}

// gather pops the heads equal to k under tree node i, left to right,
// descending only into subtrees whose minimum is k, and recomputes the
// nodes it visited on the way back.
func (r *TickReader) gather(i int, k mergeKey) {
	if r.tree[i] != k {
		return
	}
	if i >= r.leaves {
		p := i - r.leaves
		r.popHead(p)
		r.tree[i] = r.leafKey(p)
		return
	}
	r.gather(2*i, k)
	r.gather(2*i+1, k)
	r.tree[i] = minKey(r.tree[2*i], r.tree[2*i+1])
}

// popHead moves process p's finalised head into the tick.
func (r *TickReader) popHead(p int) {
	q, h := r.mq[p], r.mqHead[p]
	e := &q[h]
	r.tick.Slots = append(r.tick.Slots, TickEvent{
		Proc: int32(p), Sig: e.sig, Size: e.size,
		Compute: e.compute, Exit: e.exit, Pos: e.pos,
	})
	h++
	if h == r.fin[p] || h > 16 && h*2 >= len(q) {
		// Drained, or mostly consumed: move what is left (the open run,
		// when drained) to the front, where the cache is warm. A process
		// that runs ahead of the merge may never drain, so the second
		// rule keeps its queue within twice its live length; it copies
		// at most one entry per pop.
		n := copy(q, q[h:])
		r.mq[p] = q[:n]
		r.fin[p] -= h
		h = 0
	}
	r.mqHead[p] = h
}

// drained reports whether every finalised queue is empty.
func (r *TickReader) drained() bool { return r.tree[1] == finished }

// Next returns the next tick, or io.EOF after the last one. The
// returned Tick is scratch valid until the following call.
func (r *TickReader) Next() (*Tick, error) {
	if r.err != nil {
		return nil, r.err
	}
	for {
		if tick, ok := r.tryPop(); ok {
			return tick, nil
		}
		if r.assignDone {
			if r.drained() {
				r.err = io.EOF
				return nil, io.EOF
			}
			// Unreachable: once assignment completes every process is
			// done, so nothing can block a non-empty merge.
			r.err = fmt.Errorf("logical: trace %q: internal: merge stalled with undrained queues", r.src.AppName)
			return nil, r.err
		}
		// A failed merge attempt only reads the tree's root, so one
		// queue pop between attempts costs nothing extra and keeps the
		// finalised queues shallow.
		if err := r.step(); err != nil {
			r.err = err
			return nil, err
		}
		if r.ended == r.procs {
			if err := r.finishAssign(); err != nil {
				r.err = err
				return nil, err
			}
		}
	}
}
