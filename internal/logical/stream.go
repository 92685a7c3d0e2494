package logical

// Streaming logical order: the one PAS2P ordering engine. Order
// drains it over an in-memory trace into a Logical; the in-core
// analysis (phase.AnalyzeTrace) feeds it straight into the phase scan
// through StreamTrace; AnalyzeStream runs it over a v2 tracefile's
// rank streams.
//
// The paper's order assigns LTs with the Table 1 queue algorithm,
// normalises them (receive-run permutation, monotone clamp) and ranks
// the global (LT, sub) key set into ticks. StreamOrder produces that
// tick sequence without ever holding more than O(procs + frontier)
// events:
//
//   - events are pulled lazily, one per process at a time, from an
//     EventSource (trace.RankStreams over a v2 file, or an in-memory
//     adapter);
//   - a process's current event lives in a one-slot head buffer, and
//     each matched send's LT is taken from the send table once its
//     receive consumes it (valid traces pair them 1:1, so the table
//     holds only the unmatched frontier, and a second receive of one
//     send stalls);
//   - the permutation + clamp + sub-numbering passes are per-process
//     local, so they run incrementally as events are assigned: receives
//     buffer into the current run, any non-receive (or end of stream)
//     flushes the run with a stable sort by LT, and the running clamp
//     and collision counter finalise each event's (LT, sub) key;
//   - finalised events feed per-process FIFO queues merged by a k-way
//     minimum. Per process the key sequence is strictly increasing, so
//     the global minimum visits every distinct key exactly once in
//     sorted order — which is precisely a sort-and-rank of the keys — and
//     each pop emits one tick, numbered by pop count, with slots
//     gathered in process order.
//
// A process with no finalised event bounds the merge with (lastLT,
// lastSub+1): the clamp guarantees its next key cannot be smaller, so a
// candidate tick is emitted only when every silent process provably
// cannot join it. That is what makes the output deterministic and
// independent of I/O interleaving.

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
// tracefile.
type EventSource interface {
	Meta() trace.Meta
	// Count returns how many events process p will yield in total.
	Count(p int) uint64
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
// trace is not modified.
func SourceFromTrace(tr *trace.Trace) EventSource { return newTraceSource(tr) }

func newTraceSource(tr *trace.Trace) *traceSource {
	return &traceSource{
		meta: trace.Meta{AppName: tr.AppName, Procs: tr.Procs,
			Events: uint64(len(tr.Events)), AET: tr.AET},
		per: tr.PerProcess(),
		pos: make([]int, tr.Procs),
	}
}

func (s *traceSource) Meta() trace.Meta   { return s.meta }
func (s *traceSource) Count(p int) uint64 { return uint64(len(s.per[p])) }
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

// mergeKey orders finalised events; per process it is strictly
// increasing.
func keyLess(aLT int64, aSub int32, bLT int64, bSub int32) bool {
	if aLT != bLT {
		return aLT < bLT
	}
	return aSub < bSub
}

// assignChunk is how many queue-algorithm steps run between merge
// attempts: large enough to amortise the O(procs) pop scan, small
// enough to keep the finalised queues shallow.
const assignChunk = 64

// TickReader streams the PAS2P logical order tick by tick. Obtain one
// from StreamOrder; Next returns io.EOF after the last tick. The
// returned Tick (and its Slots) is scratch reused by the following
// call.
type TickReader struct {
	src    trace.Meta
	source EventSource
	procs  int
	total  uint64
	err    error

	// --- Table 1 queue-algorithm state ---
	queue      []int32
	qHead      int
	next       []uint64 // events pulled AND consumed per process
	remaining  []uint64 // events not yet pulled into head
	head       []trace.Event
	headOK     []bool
	hw         []int64
	sends      *sendTable
	collWaits  map[[2]int64]*collWait
	parked     []bool
	visits     int
	assigned   uint64
	assignDone bool

	// --- finalisation pipeline ---
	run      [][]pendEvent // open receive run per process
	lastLT   []int64
	lastSub  []int32
	mq       [][]pendEvent // finalised FIFO per process
	mqHead   []int
	procDone []bool

	// --- output ---
	tickNo int
	tick   Tick
}

type collWait struct {
	arrived int
	procs   []int32
}

// StreamOrder begins streaming the PAS2P logical order over src. It
// performs no I/O beyond what Next demands; errors surface from Next.
func StreamOrder(src EventSource) (*TickReader, error) {
	meta := src.Meta()
	if meta.Events == 0 {
		return nil, noOrderf("logical: empty trace")
	}
	procs := meta.Procs
	r := &TickReader{
		src: meta, source: src, procs: procs, total: meta.Events,
		next:      make([]uint64, procs),
		remaining: make([]uint64, procs),
		head:      make([]trace.Event, procs),
		headOK:    make([]bool, procs),
		hw:        make([]int64, procs),
		sends:     newSendTable(procs),
		collWaits: map[[2]int64]*collWait{},
		parked:    make([]bool, procs),
		run:       make([][]pendEvent, procs),
		lastLT:    make([]int64, procs),
		lastSub:   make([]int32, procs),
		mq:        make([][]pendEvent, procs),
		mqHead:    make([]int, procs),
		procDone:  make([]bool, procs),
	}
	var counted uint64
	for p := 0; p < procs; p++ {
		r.hw[p] = -1
		r.lastLT[p] = -1
		r.lastSub[p] = -1
		n := src.Count(p)
		r.remaining[p] = n
		counted += n
		if n > 0 {
			r.queue = append(r.queue, int32(p))
		} else {
			r.procDone[p] = true
		}
	}
	if counted != meta.Events {
		return nil, noOrderf("logical: source counts %d events across processes, header declares %d",
			counted, meta.Events)
	}
	return r, nil
}

// Meta returns the source tracefile's header.
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

// loadHead ensures process p's current event is in its head slot.
// Returns false when the process has no further events.
func (r *TickReader) loadHead(p int32) (bool, error) {
	if r.headOK[p] {
		return true, nil
	}
	if r.remaining[p] == 0 {
		return false, nil
	}
	ok, err := r.source.NextEvent(int(p), &r.head[p])
	if err != nil {
		return false, err
	}
	if !ok {
		return false, noOrderf("logical: trace %q: process %d stream ended early after %d events",
			r.src.AppName, p, r.next[p])
	}
	r.remaining[p]--
	r.headOK[p] = true
	return true, nil
}

// step runs one iteration of the queue algorithm (one queue pop).
func (r *TickReader) step() error {
	if r.qlen() == 0 {
		return noOrderf("logical: trace %q stalls with %d/%d events assigned (inconsistent relations)",
			r.src.AppName, r.assigned, r.total)
	}
	p := r.qpop()
	ok, err := r.loadHead(p)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	e := &r.head[p]
	switch e.Kind {
	case trace.Send:
		lt := r.hw[p] + 1
		e.LT = lt
		r.hw[p] = lt
		r.sends.put(p, lt)
		r.visits = 0
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
		e.LT = lt
		if lt > r.hw[p] {
			r.hw[p] = lt
		}
		r.visits = 0
	case trace.Collective:
		key := [2]int64{e.RelA, e.RelB}
		cw := r.collWaits[key]
		if cw == nil {
			cw = &collWait{}
			r.collWaits[key] = cw
		}
		cw.arrived++
		cw.procs = append(cw.procs, p)
		if cw.arrived < int(e.Involved) {
			r.parked[p] = true // head stays loaded until the last arrival
			r.visits = 0
			return nil
		}
		var maxLT int64 = -1
		for _, m := range cw.procs {
			if r.hw[m] > maxLT {
				maxLT = r.hw[m]
			}
		}
		lt := maxLT + 1
		for _, m := range cw.procs {
			me := &r.head[m]
			me.LT = lt
			r.hw[m] = lt
			r.parked[m] = false
			r.consume(m)
			if r.remaining[m] > 0 {
				r.qpush(m)
			}
		}
		delete(r.collWaits, key)
		r.visits = 0
		return nil
	default:
		return noOrderf("logical: trace %q: unknown event kind %d", r.src.AppName, e.Kind)
	}
	r.consume(p)
	if r.remaining[p] > 0 {
		r.qpush(p)
	}
	return nil
}

// consume hands process p's assigned head event to the finalisation
// pipeline and frees the head slot.
func (r *TickReader) consume(p int32) {
	e := &r.head[p]
	pe := pendEvent{lt: e.LT, pos: int(r.next[p]), sig: e.CommSignature(), size: e.Size,
		compute: e.ComputeBefore, exit: e.Exit}
	if e.Kind == trace.Recv {
		r.run[p] = append(r.run[p], pe)
	} else {
		r.flushRun(p)
		r.finalize(p, pe)
	}
	r.headOK[p] = false
	r.next[p]++
	r.assigned++
	if r.remaining[p] == 0 {
		r.flushRun(p)
		r.procDone[p] = true
	}
}

// flushRun closes process p's open receive run: the paper's
// permutation inside the LTRecvs (a stable sort by LT, as
// permuteRecvRuns does for the Lamport order), then finalisation in
// that order.
func (r *TickReader) flushRun(p int32) {
	rn := r.run[p]
	if len(rn) == 0 {
		return
	}
	slices.SortStableFunc(rn, func(a, b pendEvent) int { return cmp.Compare(a.lt, b.lt) })
	for i := range rn {
		r.finalize(p, rn[i])
	}
	r.run[p] = rn[:0]
}

// finalize applies the running monotone clamp and collision numbering
// (what clampMonotone and buildTicks do for the Lamport order) and
// queues the event for the merge.
func (r *TickReader) finalize(p int32, pe pendEvent) {
	if pe.lt < r.lastLT[p] {
		pe.lt = r.lastLT[p]
	}
	if pe.lt == r.lastLT[p] {
		pe.sub = r.lastSub[p] + 1
	} else {
		pe.sub = 0
	}
	r.lastLT[p] = pe.lt
	r.lastSub[p] = pe.sub
	r.mq[p] = append(r.mq[p], pe)
}

// finishAssign runs the post-loop checks once every event is assigned.
func (r *TickReader) finishAssign() error {
	for p, pk := range r.parked {
		if pk {
			return noOrderf("logical: trace %q: proc %d parked at a collective forever", r.src.AppName, p)
		}
	}
	r.assignDone = true
	return nil
}

// tryPop emits the next tick if the merge can prove no process will
// ever contribute a smaller key. It gathers every process whose head
// equals the global minimum, in process order.
func (r *TickReader) tryPop() (*Tick, bool) {
	minLT := int64(math.MaxInt64)
	var minSub int32 = math.MaxInt32
	found := false
	for p := 0; p < r.procs; p++ {
		if r.mqHead[p] < len(r.mq[p]) {
			h := &r.mq[p][r.mqHead[p]]
			if !found || keyLess(h.lt, h.sub, minLT, minSub) {
				minLT, minSub, found = h.lt, h.sub, true
			}
		}
	}
	if !found {
		return nil, false
	}
	// A headless, unfinished process blocks the pop unless its clamp
	// bound proves its next key must exceed the candidate.
	for p := 0; p < r.procs; p++ {
		if r.mqHead[p] < len(r.mq[p]) || r.procDone[p] {
			continue
		}
		if !keyLess(minLT, minSub, r.lastLT[p], r.lastSub[p]+1) {
			return nil, false
		}
	}
	r.tick.Index = r.tickNo
	r.tick.Slots = r.tick.Slots[:0]
	for p := 0; p < r.procs; p++ {
		if r.mqHead[p] >= len(r.mq[p]) {
			continue
		}
		h := &r.mq[p][r.mqHead[p]]
		if h.lt == minLT && h.sub == minSub {
			r.tick.Slots = append(r.tick.Slots, TickEvent{
				Proc: int32(p), Sig: h.sig, Size: h.size,
				Compute: h.compute, Exit: h.exit, Pos: h.pos,
			})
			r.mqHead[p]++
			if r.mqHead[p] == len(r.mq[p]) {
				// Drained: refill from the front, where the cache is warm.
				r.mq[p] = r.mq[p][:0]
				r.mqHead[p] = 0
			} else if r.mqHead[p] > 1024 && r.mqHead[p]*2 >= len(r.mq[p]) {
				n := copy(r.mq[p], r.mq[p][r.mqHead[p]:])
				r.mq[p] = r.mq[p][:n]
				r.mqHead[p] = 0
			}
		}
	}
	r.tickNo++
	return &r.tick, true
}

// drained reports whether every finalised queue is empty.
func (r *TickReader) drained() bool {
	for p := 0; p < r.procs; p++ {
		if r.mqHead[p] < len(r.mq[p]) {
			return false
		}
	}
	return true
}

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
		for i := 0; i < assignChunk && r.assigned < r.total; i++ {
			if err := r.step(); err != nil {
				r.err = err
				return nil, err
			}
		}
		if r.assigned >= r.total {
			if err := r.finishAssign(); err != nil {
				r.err = err
				return nil, err
			}
		}
	}
}
