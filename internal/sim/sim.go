// Package sim is a deterministic discrete-event simulator for
// message-passing programs. Each rank of a parallel application runs
// as a goroutine executing real Go code; whenever it performs a
// communication or declares computation, the rank goroutine applies
// the operation to the engine directly, using the machine and network
// models of packages machine and network; it hands control to the
// sequential scheduler only when the operation blocks. The operation
// goes to the engine by pointer, and its outcome is written in place
// into the rank's own result slot, inline or, for an operation that
// blocked, before the rank is resumed, so the per-operation path
// copies no request or result.
//
// Exactly one goroutine (either the scheduler or a single rank) runs
// at any instant, and every scheduling decision uses deterministic
// tie-breaking, so a given program on a given deployment always
// produces bit-identical virtual timings. This property is what lets
// the PAS2P checkpoint substrate replace state capture with replay.
//
// The blocking rules implement standard MPI point-to-point semantics:
// eager messages complete locally, rendezvous messages wait for the
// matching receive, matching is non-overtaking per (source, tag), and
// wildcard-source receives are resolved with a conservative rule that
// only commits to a match when no other rank could still produce an
// earlier-arriving message.
//
// A rank that has nothing left to measure retires (Proc.Retire): it
// runs in free mode for the rest of the run. Once every live rank has
// retired and nothing costed is still in flight, no clock can rise
// above the latest one, so the engine ends the run there instead of
// simulating the rest. Result.Finish is then exactly what the run to
// completion would report; the traffic counters and RankFinish cover
// only the part that was simulated, and a deadlock or panic the rest
// would have hit goes unreported.
package sim

import (
	"fmt"
	"sort"
	"strings"

	"pas2p/internal/faults"
	"pas2p/internal/machine"
	"pas2p/internal/network"
	"pas2p/internal/obs"
	"pas2p/internal/vtime"
)

// AnySource and AnyTag are wildcard values for Recv/Irecv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Config describes one simulated run.
type Config struct {
	// Deployment maps ranks onto a modelled cluster.
	Deployment *machine.Deployment
	// Body is the program executed by every rank.
	Body func(p *Proc)
	// Name labels the run in error messages.
	Name string
	// NICContention serialises inter-node messages on each node's
	// network interface: a message cannot begin injection before the
	// sender node's NIC finished the previous one, and cannot start
	// landing before the receiver node's NIC is free. Off by default
	// (infinite link capacity, the classic LogGP assumption).
	NICContention bool
	// AlgorithmicCollectives costs collectives by walking the standard
	// algorithms' rounds over the actual member paths (binomial trees,
	// recursive doubling, rings), so members complete at individually
	// skewed instants instead of one analytic completion time.
	AlgorithmicCollectives bool
	// Observer, when non-nil, receives run counters (messages, bytes,
	// collectives, a message-size histogram) and — if it carries a
	// timeline — one track per rank with compute/send/recv/collective
	// slices over virtual time. Nil skips all instrumentation.
	Observer *obs.Observer
	// Faults, when non-nil, injects deterministic message faults (loss
	// with virtual-clock retransmission, duplication, delay) and
	// compute-clock jitter into the run. Decisions are pure functions of
	// the injector's seed and each event's identity, so the simulator's
	// bit-identical-timing guarantee holds for faulted runs too. Nil
	// keeps the exact fault-free fast path.
	Faults *faults.Injector
	// TimelinePID reuses an already-allocated timeline process for the
	// rank tracks instead of allocating a fresh one; callers that need
	// to add events to the same tracks after the run (e.g. phase
	// boundaries discovered later) pre-allocate the pid. Zero allocates
	// a process named TimelineName (or "sim:"+Name).
	TimelinePID  int
	TimelineName string
}

// Result summarises a completed run. When the run stopped early
// because every rank retired, Finish is still exact, but the other
// fields cover only the part that was simulated.
type Result struct {
	// Finish is the virtual time at which the last rank finished: the
	// application execution time.
	Finish vtime.Time
	// RankFinish holds each rank's individual finish time (its clock
	// when the run stopped, for a run that stopped early).
	RankFinish []vtime.Time
	// Messages and Bytes count point-to-point traffic; Collectives
	// counts collective operations (one per operation, not per rank).
	Messages    int64
	Bytes       int64
	Collectives int64
}

type procStatus int8

const (
	stReady   procStatus = iota // has a known wake time, waiting to run
	stRunning                   // currently executing Go code
	stStuck                     // blocked on an unresolved operation
	stDone
)

// blockKind says which operation a stuck rank is parked on; together
// with blockInfo it lets deadlock reports render the same descriptions
// the engine used to build eagerly per blocking call, without paying
// fmt.Sprintf on the hot path.
type blockKind int8

const (
	bkNone blockKind = iota
	bkSend
	bkRecv
	bkWait
	bkColl
)

// blockInfo is the lazily-rendered "what is this rank blocked on"
// record; only deadlockError ever formats it.
type blockInfo struct {
	kind             blockKind
	peer, tag, size  int
	collOp           network.CollectiveOp
	collCtx, collSeq int
}

// procState is the scheduler's view of one rank.
type procState struct {
	rank   int
	clock  vtime.Time
	wake   vtime.Time
	status procStatus

	// resume wakes the rank goroutine. pending is the rank's result
	// slot: every operation writes its outcome there in place, inline
	// or, for a parked rank, strictly before the resume signal.
	resume  chan struct{}
	pending result

	mode Mode
	// retired marks a rank that runs in free mode for good (Retire).
	retired bool

	// nonblocking request bookkeeping: the live requests of this rank.
	// Outstanding sets are small, so a linear slice beats a map.
	nextReqID int
	reqs      []*reqState
	// waitSet is the set of request ids a stuck rank is waiting on,
	// nil when it waits on nothing; waitBuf is its reused backing
	// store, so neither blocking ops nor Wait allocate one per call.
	waitSet  []int
	waitBuf  []int
	waitPost vtime.Time

	// postedRecvs in post order, matched entries pruned lazily.
	postedRecvs []*postedRecv

	// per-context collective sequence counters
	collSeq map[int]int

	block     blockInfo
	sendIndex int64 // per-sender message counter (message uids)
	advSeq    int64 // per-rank compute-block counter (jitter keys)
}

// Mode adjusts how a rank's operations are costed; the signature
// executor uses it to fast-forward between phases (free mode, as if
// restored from a checkpoint) and to model cold-cache warm-up.
type Mode struct {
	// ComputeScale multiplies declared computation time. 1 is normal,
	// 0 skips compute cost entirely, >1 models a cold machine.
	ComputeScale float64
	// CommFree makes this rank's sends and receives instantaneous.
	CommFree bool
}

// NormalMode is the default costing.
var NormalMode = Mode{ComputeScale: 1}

type message struct {
	src, dst, tag, size int
	uid                 int64
	payload             any
	sendPost            vtime.Time
	arrival             vtime.Time
	senderDone          vtime.Time
	rdv                 bool
	timingKnown         bool
	matched             bool
	senderFree          bool
	// faultDelay is the injected extra latency (retransmissions plus
	// delay faults) added to this message's arrival.
	faultDelay vtime.Duration
	// senderReq, when non-nil, is a rendezvous send request whose
	// completion is pending on the match.
	senderReq *reqState
}

type postedRecv struct {
	owner    *procState
	src, tag int
	post     vtime.Time
	req      *reqState
	matched  bool
}

type reqKind int8

const (
	reqSend reqKind = iota
	reqRecv
)

type reqState struct {
	id       int
	kind     reqKind
	done     bool
	complete vtime.Time
	info     PtPInfo
}

type collKey struct {
	ctx, seq int
}

type collState struct {
	op      int // network.CollectiveOp
	members []int
	root    int
	size    int
	arrived int
	tmax    vtime.Time
	// arrivals and payloads are indexed by position in members.
	arrivals []vtime.Time
	payloads []any
	freeAll  bool
}

// Engine drives one run. Engine state is mutated by exactly one
// goroutine at a time: the scheduler while picking, or the single
// running rank while applying an operation.
type Engine struct {
	cfg Config
	n   int

	procs []*procState
	// yieldCh is how the running rank returns control to the scheduler
	// when it parks, finishes or fails.
	yieldCh chan struct{}

	// ready is a binary min-heap of runnable ranks keyed on
	// (wake time, rank) — the indexed replacement for the former
	// O(P)-per-step linear scan. A rank is pushed exactly when it turns
	// stReady and popped exactly when scheduled, so no decrease-key is
	// ever needed.
	ready []*procState

	// channels is the flat [src*n+dst] point-to-point queue table;
	// a direct index replaces per-message map hashing.
	channels []msgQueue
	colls    map[collKey]*collState

	// Freelists recycle the per-operation records across the run:
	// messages (recycled when their queue compacts), posted receives
	// (recycled when matched entries are pruned) and requests
	// (recycled when a wait consumes them).
	msgFree []*message
	prFree  []*postedRecv
	reqFree []*reqState

	// Per-node NIC availability (transmit / receive sides), used when
	// Config.NICContention is set.
	nicTx, nicRx []vtime.Time

	// anyStuck lists ranks stuck on a wildcard-source receive; they
	// are re-examined whenever clocks advance.
	anyStuck []*procState

	doneCount int
	err       error

	// retiredLive counts retired ranks whose body has not returned;
	// costedInFlight counts messages sent outside free mode and not yet
	// matched. settled reads both to end a run early.
	retiredLive    int
	costedInFlight int

	stats Result

	// Timeline sink (nil when not observing) and the pid of the rank
	// tracks; msgBytes is the pre-resolved message-size histogram so
	// the send path never takes the registry lock.
	tl       *obs.Timeline
	tlPid    int
	msgBytes *obs.Histogram

	// onPick, when non-nil, sees every rank the scheduler picks,
	// before it runs (a test hook).
	onPick func(*procState)
}

// msgQueue is one (src, dst) point-to-point channel: messages in send
// order, consumed from head. Matched messages are skipped during scans
// and reclaimed by compactChan; head indexing keeps reclamation O(1)
// amortised where slicing the prefix off would cost O(queue) per match
// (quadratic for a flooding sender).
type msgQueue struct {
	q    []*message
	head int
}

// Run executes the configured program to completion and returns the
// timing result. It returns an error on deadlock, on inconsistent
// collective calls, or if any rank panics.
func Run(cfg Config) (Result, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	return e.run()
}

// newEngine validates the configuration and builds the run state; rank
// goroutines start in run.
func newEngine(cfg Config) (*Engine, error) {
	if cfg.Deployment == nil {
		return nil, fmt.Errorf("sim %q: nil deployment", cfg.Name)
	}
	if cfg.Body == nil {
		return nil, fmt.Errorf("sim %q: nil body", cfg.Name)
	}
	e := &Engine{
		cfg:     cfg,
		n:       cfg.Deployment.Ranks,
		yieldCh: make(chan struct{}),
		colls:   make(map[collKey]*collState),
	}
	e.channels = make([]msgQueue, e.n*e.n)
	if cfg.NICContention {
		nodes := cfg.Deployment.Cluster.Nodes
		e.nicTx = make([]vtime.Time, nodes)
		e.nicRx = make([]vtime.Time, nodes)
	}
	if reg := cfg.Observer.Reg(); reg != nil {
		e.msgBytes = reg.Histogram("sim.msg_bytes",
			[]float64{64, 1024, 8192, 65536, 1 << 20})
	}
	if e.tl = cfg.Observer.TL(); e.tl != nil {
		e.tlPid = cfg.TimelinePID
		if e.tlPid == 0 {
			name := cfg.TimelineName
			if name == "" {
				name = "sim:" + cfg.Name
			}
			e.tlPid = e.tl.NewProcess(name)
		}
		for i := 0; i < e.n; i++ {
			e.tl.SetThreadName(e.tlPid, i, fmt.Sprintf("rank %d", i))
		}
	}
	e.procs = make([]*procState, e.n)
	for i := 0; i < e.n; i++ {
		e.procs[i] = &procState{
			rank:    i,
			status:  stReady,
			resume:  make(chan struct{}),
			collSeq: map[int]int{},
			mode:    NormalMode,
		}
	}
	return e, nil
}

// run starts the rank goroutines, drives the scheduler loop, and
// collects the result.
func (e *Engine) run() (Result, error) {
	for _, ps := range e.procs {
		p := &Proc{eng: e, st: ps}
		go rankMain(p, e.cfg.Body)
		e.pushReady(ps)
	}
	e.loop()
	if e.err != nil {
		e.abort()
		return Result{}, fmt.Errorf("sim %q: %w", e.cfg.Name, e.err)
	}
	e.stats.RankFinish = make([]vtime.Time, e.n)
	for i, ps := range e.procs {
		e.stats.RankFinish[i] = ps.clock
		if ps.clock > e.stats.Finish {
			e.stats.Finish = ps.clock
		}
	}
	if reg := e.cfg.Observer.Reg(); reg != nil {
		reg.Counter("sim.runs").Inc()
		reg.Counter("sim.messages").Add(e.stats.Messages)
		reg.Counter("sim.bytes").Add(e.stats.Bytes)
		reg.Counter("sim.collectives").Add(e.stats.Collectives)
		reg.Gauge("sim.last_finish_seconds").Set(e.stats.Finish.Seconds())
	}
	return e.stats, nil
}

// usec converts virtual nanoseconds to trace-event microseconds.
func usec(t vtime.Time) float64 { return float64(t) / 1e3 }

// slice emits one complete slice on a rank's timeline track; a no-op
// without a timeline or for empty intervals.
func (e *Engine) slice(rank int, name, cat string, start, end vtime.Time) {
	if e.tl == nil || end <= start {
		return
	}
	e.tl.Slice(e.tlPid, rank, name, cat, usec(start), float64(end.Sub(start))/1e3)
}

// instant emits an instant event on a rank's timeline track.
func (e *Engine) instant(rank int, name string, t vtime.Time) {
	if e.tl == nil {
		return
	}
	e.tl.Instant(e.tlPid, rank, name, usec(t))
}

// rankMain is the goroutine wrapper for one rank. Completion and
// panics mutate engine state directly — safe because the rank is the
// single running goroutine — and then yield to the scheduler.
func rankMain(p *Proc, body func(*Proc)) {
	e := p.eng
	defer func() {
		if r := recover(); r != nil {
			if r == errAborted {
				return // engine is shutting down
			}
			p.st.status = stDone
			e.err = fmt.Errorf("rank %d panicked: %v", p.st.rank, r)
			e.yieldCh <- struct{}{}
		}
	}()
	p.await() // wait for the first schedule
	body(p)
	p.st.status = stDone
	e.doneCount++
	if p.st.retired {
		e.retiredLive--
	}
	e.yieldCh <- struct{}{}
}

// loop is the scheduler: repeatedly run the earliest ready rank; when
// none is ready, resolve a conservative wildcard receive; otherwise
// report deadlock. A run whose outcome can no longer change ends early.
func (e *Engine) loop() {
	for e.doneCount < e.n && e.err == nil {
		if e.settled() {
			e.stop()
			return
		}
		e.retryAnyStuck(false)
		ps := e.popReady()
		if ps == nil {
			if e.retryAnyStuck(true) {
				continue
			}
			e.err = e.deadlockError()
			e.cfg.Observer.Event("sim.deadlock", e.err.Error(), -1, int64(e.n-e.doneCount))
			return
		}
		if e.onPick != nil {
			e.onPick(ps)
		}
		ps.status = stRunning
		if ps.wake > ps.clock {
			ps.clock = ps.wake
		}
		ps.resume <- struct{}{}
		// The rank now runs alone, applying its operations inline; it
		// signals back when it parks, finishes or fails.
		<-e.yieldCh
	}
}

// settled reports whether no rank's clock can rise above the current
// latest clock any more, so Finish is already known. That holds once
// every live rank is retired (from then on computation costs nothing
// and every send arrives at its sender's clock), no message sent at a
// cost is still unmatched, no pending collective had a costed arrival,
// and no completed request a rank has yet to wait on completes after
// the latest clock. Only the first two tests run on every pick.
func (e *Engine) settled() bool {
	if e.retiredLive < e.n-e.doneCount || e.costedInFlight > 0 {
		return false
	}
	for _, cs := range e.colls {
		if !cs.freeAll {
			return false
		}
	}
	var latest vtime.Time
	for _, ps := range e.procs {
		latest = vtime.Max(latest, e.effTime(ps))
	}
	for _, ps := range e.procs {
		if ps.status == stDone {
			continue
		}
		for _, rs := range ps.reqs {
			if rs.done && rs.complete > latest {
				return false
			}
		}
	}
	return true
}

// stop ends a settled run: each ready rank takes its wake time as its
// clock, exactly as when it is scheduled, and the parked rank
// goroutines are unwound.
func (e *Engine) stop() {
	for _, ps := range e.procs {
		ps.clock = e.effTime(ps)
	}
	e.abort()
}

// readyLess orders the ready heap: earliest wake first, ties broken by
// lowest rank — the exact order of the former first-wins linear scan.
func readyLess(a, b *procState) bool {
	if a.wake != b.wake {
		return a.wake < b.wake
	}
	return a.rank < b.rank
}

// pushReady inserts a newly-runnable rank into the ready heap.
func (e *Engine) pushReady(ps *procState) {
	h := append(e.ready, ps)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !readyLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.ready = h
}

// popReady removes and returns the runnable rank with the earliest
// (wake, rank) key, or nil when none is ready.
func (e *Engine) popReady() *procState {
	h := e.ready
	if len(h) == 0 {
		return nil
	}
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	h = h[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		if l >= len(h) {
			break
		}
		c := l
		if r < len(h) && readyLess(h[r], h[l]) {
			c = r
		}
		if !readyLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	e.ready = h
	return top
}

// abort unblocks every live rank goroutine with a poison result so the
// process does not leak goroutines after a failed run.
func (e *Engine) abort() {
	for _, ps := range e.procs {
		if ps.status == stDone {
			continue
		}
		ps.pending = result{aborted: true}
		// Stuck and ready ranks wait in await; the formerly-running
		// rank is parked there too by the time loop exits.
		select {
		case ps.resume <- struct{}{}:
		default:
			// The rank has not reached its receive yet; deliver the
			// poison from the side.
			go func(c chan struct{}) { c <- struct{}{} }(ps.resume)
		}
	}
}

// blockedDesc renders what a stuck rank is parked on; called only from
// deadlockError, so the hot path never formats strings.
func (e *Engine) blockedDesc(ps *procState) string {
	switch ps.block.kind {
	case bkSend:
		return fmt.Sprintf("Send(dst=%d tag=%d size=%d, rendezvous)", ps.block.peer, ps.block.tag, ps.block.size)
	case bkRecv:
		return fmt.Sprintf("Recv(src=%d tag=%d)", ps.block.peer, ps.block.tag)
	case bkWait:
		return fmt.Sprintf("Wait(%v)", ps.waitSet)
	case bkColl:
		arrived, total := 0, 0
		if cs := e.colls[collKey{ctx: ps.block.collCtx, seq: ps.block.collSeq}]; cs != nil {
			arrived, total = cs.arrived, len(cs.members)
		}
		return fmt.Sprintf("%v(ctx=%d seq=%d, %d/%d arrived)",
			ps.block.collOp, ps.block.collCtx, ps.block.collSeq, arrived, total)
	default:
		return ""
	}
}

func (e *Engine) deadlockError() error {
	var b strings.Builder
	fmt.Fprintf(&b, "deadlock: %d of %d ranks blocked", e.n-e.doneCount, e.n)
	var ranks []int
	for _, ps := range e.procs {
		if ps.status != stDone {
			ranks = append(ranks, ps.rank)
		}
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		ps := e.procs[r]
		fmt.Fprintf(&b, "\n  rank %d @ %v: %s", r, ps.clock, e.blockedDesc(ps))
	}
	return fmt.Errorf("%s", b.String())
}

// effTime is a lower bound on the virtual time at which a rank could
// next initiate a send.
func (e *Engine) effTime(ps *procState) vtime.Time {
	if ps.status == stReady && ps.wake > ps.clock {
		return ps.wake
	}
	return ps.clock
}

func (e *Engine) chanFor(src, dst int) *msgQueue {
	return &e.channels[src*e.n+dst]
}

// newMessage takes a message record from the freelist, or allocates.
func (e *Engine) newMessage() *message {
	if n := len(e.msgFree); n > 0 {
		m := e.msgFree[n-1]
		e.msgFree = e.msgFree[:n-1]
		return m
	}
	return &message{}
}

// newPostedRecv takes a posted-receive record from the freelist, or
// allocates.
func (e *Engine) newPostedRecv() *postedRecv {
	if n := len(e.prFree); n > 0 {
		pr := e.prFree[n-1]
		e.prFree = e.prFree[:n-1]
		return pr
	}
	return &postedRecv{}
}

// firstCompatible returns the earliest-sequence unmatched message in q
// matching the tag filter.
func (q *msgQueue) firstCompatible(tag int) *message {
	for _, m := range q.q[q.head:] {
		if m.matched {
			continue
		}
		if tag == AnyTag || m.tag == tag {
			return m
		}
	}
	return nil
}

func (q *msgQueue) push(m *message) {
	q.q = append(q.q, m)
}

// compactChan advances a queue past its matched prefix and recycles
// the dropped messages (nothing references a matched message once its
// rendezvous sender — if any — has been completed). The live window
// slides down only when the dead prefix dominates, keeping compaction
// O(1) amortised.
func (e *Engine) compactChan(q *msgQueue) {
	for q.head < len(q.q) && q.q[q.head].matched {
		if m := q.q[q.head]; m.senderReq == nil {
			*m = message{}
			e.msgFree = append(e.msgFree, m)
		}
		q.q[q.head] = nil
		q.head++
	}
	switch {
	case q.head == len(q.q):
		q.q = q.q[:0]
		q.head = 0
	case q.head > 64 && q.head*2 >= len(q.q):
		n := copy(q.q, q.q[q.head:])
		for i := n; i < len(q.q); i++ {
			q.q[i] = nil
		}
		q.q = q.q[:n]
		q.head = 0
	}
}
