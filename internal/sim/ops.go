package sim

import (
	"fmt"
	"math"
	"strings"

	"pas2p/internal/faults"
	"pas2p/internal/network"
	"pas2p/internal/vtime"
)

type opKind int8

const (
	opAdvance opKind = iota
	opSend
	opIsend
	opRecv
	opIrecv
	opWait
	opCollective
	opSetMode
	opRetire
)

type request struct {
	kind opKind

	dur vtime.Duration // advance

	peer, tag, size int // send/recv
	payload         any

	collOp      network.CollectiveOp
	collCtx     int
	collMembers []int
	collRoot    int

	mode Mode
}

// PtPInfo reports the resolved timing of one point-to-point operation.
type PtPInfo struct {
	Start, End vtime.Time
	Src, Dst   int
	Tag, Size  int
	// SendSeq is the per-sender message index: (Src, SendSeq)
	// identifies the message globally, giving the trace layer the
	// paper's "Relation" between a receive and its send.
	SendSeq int64
	Payload any // receives only
	IsSend  bool
}

// CollInfo reports the resolved timing of one collective operation.
type CollInfo struct {
	Op         network.CollectiveOp
	Ctx, Seq   int
	Start, End vtime.Time
	Root, Size int
	Members    []int
	// Payloads holds every member's contribution, indexed like
	// Members; the caller computes the operation's data semantics.
	Payloads []any
}

// result is a rank's pending slot (procState.pending): each operation
// writes its outcome there in place, whether it completes inline or a
// later event completes it while the rank is parked, and the Proc
// method reads back only the field it needs. Fields are overwritten,
// never reset, between operations. Proc.Wait reads ptps == nil as a
// singleton wait, so ptps is non-nil only from a multi-request
// completion until that Wait consumes it; the Proc methods also drop
// the payload references they hand out, so the slot keeps no payload
// alive.
type result struct {
	aborted bool
	ptp     PtPInfo
	ptps    []PtPInfo // wait on several requests; nil for singletons
	coll    CollInfo
	reqID   int // isend/irecv
}

// handle applies one operation for the running rank ps, inline on the
// rank's own goroutine, writing its outcome into ps.pending. It
// returns false when the rank may continue, or true when the rank is
// now stuck (or the engine failed) and must yield to the scheduler.
func (e *Engine) handle(ps *procState, req *request) (blocked bool) {
	switch req.kind {
	case opAdvance:
		d := req.dur
		if ps.mode.ComputeScale != 1 {
			d = vtime.Duration(math.Round(float64(d) * ps.mode.ComputeScale))
		}
		if e.cfg.Faults != nil && d > 0 {
			if fac := e.cfg.Faults.Jitter(ps.rank, ps.advSeq); fac != 1 {
				d = vtime.Duration(math.Round(float64(d) * fac))
			}
			ps.advSeq++
		}
		start := ps.clock
		ps.clock = ps.clock.Add(d)
		e.slice(ps.rank, "compute", "compute", start, ps.clock)
		return false

	case opSetMode:
		if ps.retired {
			e.err = fmt.Errorf("rank %d: SetMode after Retire", ps.rank)
			return true
		}
		if s := req.mode.ComputeScale; math.IsNaN(s) || math.IsInf(s, 0) {
			e.err = fmt.Errorf("rank %d: non-finite compute scale %v", ps.rank, s)
			return true
		}
		ps.mode = req.mode
		if ps.mode.ComputeScale < 0 {
			ps.mode.ComputeScale = 0
		}
		return false

	case opRetire:
		if !ps.retired {
			ps.retired = true
			ps.mode = Mode{CommFree: true}
			e.retiredLive++
		}
		return false

	case opSend, opIsend:
		return e.handleSend(ps, req)

	case opRecv, opIrecv:
		return e.handleRecv(ps, req)

	case opWait:
		return e.handleWait(ps)

	case opCollective:
		return e.handleCollective(ps, req)

	default:
		e.err = fmt.Errorf("rank %d: unknown op %d", ps.rank, req.kind)
		return true
	}
}

func (e *Engine) handleSend(ps *procState, req *request) (blocked bool) {
	if req.peer < 0 || req.peer >= e.n {
		e.err = fmt.Errorf("rank %d: send to invalid rank %d", ps.rank, req.peer)
		return true
	}
	if req.size < 0 {
		e.err = fmt.Errorf("rank %d: send with negative size %d", ps.rank, req.size)
		return true
	}
	path := e.cfg.Deployment.Path(ps.rank, req.peer)
	m := e.newMessage()
	m.src, m.dst, m.tag, m.size = ps.rank, req.peer, req.tag, req.size
	m.uid = ps.sendIndex
	m.payload = req.payload
	m.sendPost = ps.clock
	m.senderFree = ps.mode.CommFree
	if !m.senderFree {
		e.costedInFlight++
	}
	ps.sendIndex++
	e.stats.Messages++
	e.stats.Bytes += int64(req.size)
	if e.msgBytes != nil {
		e.msgBytes.Observe(float64(req.size))
	}

	// Decide injected faults before timing is resolved: lost
	// transmissions (each paying one RTO before retransmission),
	// duplicates (discarded on match, so only counted), and delay
	// faults all fold into one extra arrival latency. Free-mode sends
	// model signature skip regions and stay untouched.
	if e.cfg.Faults != nil && !m.senderFree {
		if f, ok := e.cfg.Faults.Message(m.src, m.dst, m.uid, m.size); ok {
			m.faultDelay = f.Delay
			if e.tl != nil {
				e.instant(ps.rank, faultLabel(f), ps.clock)
			}
		}
	}

	info := PtPInfo{Start: ps.clock, Src: ps.rank, Dst: req.peer,
		Tag: req.tag, Size: req.size, SendSeq: m.uid, IsSend: true}

	switch {
	case m.senderFree:
		m.arrival = ps.clock
		m.senderDone = ps.clock
		m.timingKnown = true
	case req.size <= path.EagerLimit:
		start := e.nicClaimTx(ps.rank, req.peer, ps.clock, req.size)
		r := path.Eager(start, req.size)
		m.senderDone = r.SenderDone
		m.arrival = e.nicClaimRx(ps.rank, req.peer, r.Arrival, req.size).Add(m.faultDelay)
		m.timingKnown = true
	default:
		m.rdv = true
	}

	if m.timingKnown {
		// Eager (or free): the sender proceeds immediately. Matching
		// may recycle m, so capture its timing first and never touch
		// it again.
		senderDone := m.senderDone
		e.chanFor(ps.rank, req.peer).push(m)
		e.tryMatchArrival(m)
		info.End = senderDone
		e.slice(ps.rank, "send", "comm", info.Start, senderDone)
		if req.kind == opSend {
			ps.clock = senderDone
			ps.pending.ptp = info
			return false
		}
		rs := e.newReq(ps, reqSend)
		rs.done = true
		rs.complete = senderDone
		rs.info = info
		// Isend still charges the local injection overhead.
		ps.clock = senderDone
		ps.pending.reqID = rs.id
		return false
	}

	// Rendezvous: completion awaits the matching receive. The sender
	// request is attached before matching so a match completes it (and
	// may recycle m) inside bind.
	rs := e.newReq(ps, reqSend)
	rs.info = info
	m.senderReq = rs
	e.chanFor(ps.rank, req.peer).push(m)
	e.tryMatchArrival(m)
	// Matching may have recycled m: consult rs from here on.
	if req.kind == opIsend {
		if rs.done {
			// Matched inline (the receive was already posted): the
			// isend charges the sender-side rendezvous span to the
			// call itself, exactly like the eager path.
			ps.clock = rs.complete
		}
		ps.pending.reqID = rs.id
		return false
	}
	// Blocking rendezvous send = isend + wait.
	return e.blockOnReq1(ps, rs.id, bkSend, req.peer, req.tag, req.size)
}

func (e *Engine) handleRecv(ps *procState, req *request) (blocked bool) {
	if req.peer != AnySource && (req.peer < 0 || req.peer >= e.n) {
		e.err = fmt.Errorf("rank %d: recv from invalid rank %d", ps.rank, req.peer)
		return true
	}
	rs := e.newReq(ps, reqRecv)
	e.pruneMatched(ps) // safe here: never called mid-iteration
	pr := e.newPostedRecv()
	pr.owner = ps
	pr.src = req.peer
	pr.tag = req.tag
	pr.post = ps.clock
	pr.req = rs
	ps.postedRecvs = append(ps.postedRecvs, pr)
	e.tryMatchPosted(pr, req.peer == AnySource)

	if req.kind == opIrecv {
		ps.pending.reqID = rs.id
		return false
	}
	return e.blockOnReq1(ps, rs.id, bkRecv, req.peer, req.tag, 0)
}

// handleWait parks the rank on the request ids Proc.Wait put in its
// wait buffer.
func (e *Engine) handleWait(ps *procState) (blocked bool) {
	for _, id := range ps.waitBuf {
		if ps.findReq(id) == nil {
			e.err = fmt.Errorf("rank %d: wait on unknown request %d", ps.rank, id)
			return true
		}
	}
	return e.blockOnWait(ps, bkWait, 0, 0, 0)
}

// blockOnReq1 parks the rank on a single request (the blocking
// Send/Recv path) unless it already resolved.
func (e *Engine) blockOnReq1(ps *procState, id int, kind blockKind, peer, tag, size int) (blocked bool) {
	ps.waitBuf = append(ps.waitBuf[:0], id)
	return e.blockOnWait(ps, kind, peer, tag, size)
}

// blockOnWait parks the rank on the request ids in its wait buffer
// unless every one already resolved; kind, peer, tag and size describe
// the blocking operation for deadlock reports. The buffer is reused
// across calls, so no wait set is allocated per operation.
func (e *Engine) blockOnWait(ps *procState, kind blockKind, peer, tag, size int) (blocked bool) {
	ps.waitSet = ps.waitBuf
	ps.waitPost = ps.clock
	if e.completeWait(ps) {
		return false
	}
	ps.status = stStuck
	ps.block = blockInfo{kind: kind, peer: peer, tag: tag, size: size}
	return true
}

// completeWait checks a rank's wait set; when every request is done it
// writes the wait result into ps.pending, advances the clock, clears
// the set and recycles the consumed requests. Singleton waits leave
// their info in pending.ptp with pending.ptps nil, so the hot blocking
// path allocates nothing.
func (e *Engine) completeWait(ps *procState) bool {
	if ps.waitSet == nil {
		return false
	}
	end := ps.waitPost
	for _, id := range ps.waitSet {
		rs := ps.findReq(id)
		if !rs.done {
			return false
		}
		if rs.complete > end {
			end = rs.complete
		}
	}
	res := &ps.pending
	if len(ps.waitSet) == 1 {
		rs := ps.takeReq(ps.waitSet[0])
		res.ptp = rs.info
		e.freeReq(rs)
	} else {
		res.ptps = make([]PtPInfo, len(ps.waitSet))
		for i, id := range ps.waitSet {
			rs := ps.takeReq(id)
			res.ptps[i] = rs.info
			e.freeReq(rs)
		}
	}
	ps.clock = end
	ps.waitSet = nil
	return true
}

// findReq returns the live request with the given id, or nil.
// Outstanding request sets are tiny, so a linear scan over the slice
// beats map hashing on the hot path.
func (ps *procState) findReq(id int) *reqState {
	for _, rs := range ps.reqs {
		if rs.id == id {
			return rs
		}
	}
	return nil
}

// takeReq removes and returns the live request with the given id
// (swap-delete: nothing depends on the slice's order).
func (ps *procState) takeReq(id int) *reqState {
	for i, rs := range ps.reqs {
		if rs.id == id {
			last := len(ps.reqs) - 1
			ps.reqs[i] = ps.reqs[last]
			ps.reqs[last] = nil
			ps.reqs = ps.reqs[:last]
			return rs
		}
	}
	return nil
}

func (e *Engine) newReq(ps *procState, kind reqKind) *reqState {
	ps.nextReqID++
	var rs *reqState
	if n := len(e.reqFree); n > 0 {
		rs = e.reqFree[n-1]
		e.reqFree = e.reqFree[:n-1]
	} else {
		rs = &reqState{}
	}
	rs.id = ps.nextReqID
	rs.kind = kind
	ps.reqs = append(ps.reqs, rs)
	return rs
}

// freeReq recycles a consumed request. Callers guarantee nothing
// references it any more: send requests are detached from their
// message by finishRendezvous, receive requests from their posted
// receive by bind.
func (e *Engine) freeReq(rs *reqState) {
	*rs = reqState{}
	e.reqFree = append(e.reqFree, rs)
}

// nicClaimTx applies transmit-side NIC serialisation for inter-node
// messages: injection cannot begin before the sender node's NIC is
// free. Returns the effective send start and books the NIC through the
// injection. Intra-node traffic and disabled contention pass through.
func (e *Engine) nicClaimTx(src, dst int, start vtime.Time, size int) vtime.Time {
	if e.nicTx == nil || e.cfg.Deployment.SameNode(src, dst) {
		return start
	}
	node := e.cfg.Deployment.Place(src).Node
	if e.nicTx[node] > start {
		start = e.nicTx[node]
	}
	path := e.cfg.Deployment.Path(src, dst)
	e.nicTx[node] = start.Add(path.SendOverhead + path.InjectTime(size))
	return start
}

// nicClaimRx applies receive-side NIC serialisation: a message's
// landing (its transfer-time-long tail) cannot start before the
// receiver node's NIC drained the previous one. Returns the effective
// arrival and books the NIC until then.
func (e *Engine) nicClaimRx(src, dst int, arrival vtime.Time, size int) vtime.Time {
	if e.nicRx == nil || e.cfg.Deployment.SameNode(src, dst) {
		return arrival
	}
	node := e.cfg.Deployment.Place(dst).Node
	path := e.cfg.Deployment.Path(src, dst)
	transfer := path.TransferTime(size)
	landStart := arrival.Add(-transfer)
	if e.nicRx[node] > landStart {
		landStart = e.nicRx[node]
	}
	arrival = landStart.Add(transfer)
	e.nicRx[node] = arrival
	return arrival
}

// tryMatchArrival matches a newly sent message against the
// destination's posted receives (earliest compatible post wins).
func (e *Engine) tryMatchArrival(m *message) {
	dst := e.procs[m.dst]
	for _, pr := range dst.postedRecvs {
		if pr.matched {
			continue
		}
		if pr.src != AnySource && pr.src != m.src {
			continue
		}
		if pr.tag != AnyTag && pr.tag != m.tag {
			continue
		}
		if pr.src == AnySource {
			// Wildcard receives are matched only under the
			// conservative rule; re-examined via anyStuck.
			e.noteAnyStuck(dst)
			return
		}
		// Non-overtaking: this message must be the first compatible
		// one in its channel for this receive.
		q := e.chanFor(m.src, m.dst)
		if q.firstCompatible(pr.tag) != m {
			return
		}
		e.bind(pr, m)
		return
	}
}

// tryMatchPosted matches a newly posted receive against queued
// messages. Wildcard-source receives go through the conservative rule.
func (e *Engine) tryMatchPosted(pr *postedRecv, wildcard bool) {
	if wildcard {
		if !e.resolveAny(pr, false) {
			e.noteAnyStuck(pr.owner)
		}
		return
	}
	q := e.chanFor(pr.src, pr.owner.rank)
	if m := q.firstCompatible(pr.tag); m != nil {
		e.bind(pr, m)
	}
}

func (e *Engine) noteAnyStuck(ps *procState) {
	for _, s := range e.anyStuck {
		if s == ps {
			return
		}
	}
	e.anyStuck = append(e.anyStuck, ps)
}

// candidate returns the best matchable message for a wildcard receive
// and the earliest time a not-yet-seen message could arrive.
func (e *Engine) candidate(pr *postedRecv) (best *message, bestArr vtime.Time, bound vtime.Time) {
	bound = vtime.Infinity
	bestArr = vtime.Infinity
	minLat := e.cfg.Deployment.MinLatency()
	for src := 0; src < e.n; src++ {
		m := e.chanFor(src, pr.owner.rank).firstCompatible(pr.tag)
		if m != nil {
			arr := e.hypotheticalArrival(m, pr)
			if arr < bestArr || (arr == bestArr && best != nil && m.src < best.src) {
				best, bestArr = m, arr
			}
			continue
		}
		// No pending candidate from src: it could still send one.
		sp := e.procs[src]
		if src == pr.owner.rank || sp.status == stDone {
			continue
		}
		lb := e.effTime(sp).Add(minLat)
		if lb < bound {
			bound = lb
		}
	}
	return best, bestArr, bound
}

// hypotheticalArrival is the arrival time a message would have if
// matched with the given receive now.
func (e *Engine) hypotheticalArrival(m *message, pr *postedRecv) vtime.Time {
	if m.timingKnown {
		return m.arrival
	}
	path := e.cfg.Deployment.Path(m.src, m.dst)
	return path.Rendezvous(m.sendPost, pr.post, m.size).Arrival.Add(m.faultDelay)
}

// faultLabel renders the timeline instant for an injected message
// fault; only called when a timeline is attached.
func faultLabel(f faults.MsgFault) string {
	var b strings.Builder
	b.WriteString("fault:")
	if f.Retransmits > 0 {
		fmt.Fprintf(&b, " loss x%d", f.Retransmits)
	}
	if f.Duplicated {
		b.WriteString(" dup")
	}
	if f.Delay > 0 {
		fmt.Fprintf(&b, " +%v", f.Delay)
	}
	return b.String()
}

// resolveAny attempts to finalise a wildcard receive. With force set
// (used when the whole system is otherwise blocked) the best candidate
// is accepted unconditionally.
func (e *Engine) resolveAny(pr *postedRecv, force bool) bool {
	best, arr, bound := e.candidate(pr)
	if best == nil {
		return false
	}
	if !force && arr > bound {
		return false
	}
	e.bind(pr, best)
	return true
}

// retryAnyStuck re-examines wildcard receives. With force set it
// accepts the globally earliest candidate across all stuck wildcard
// receives, which is safe because no clock can otherwise advance.
func (e *Engine) retryAnyStuck(force bool) bool {
	if len(e.anyStuck) == 0 {
		return false
	}
	progressed := false
	if !force {
		kept := e.anyStuck[:0]
		for _, ps := range e.anyStuck {
			if e.retryRankAny(ps, false) {
				progressed = true
			} else if e.hasOpenAny(ps) {
				kept = append(kept, ps)
			}
		}
		e.anyStuck = kept
		return progressed
	}
	// Forced: pick the globally earliest candidate.
	var bestPR *postedRecv
	var bestMsg *message
	bestArr := vtime.Infinity
	for _, ps := range e.anyStuck {
		for _, pr := range ps.postedRecvs {
			if pr.matched || pr.src != AnySource {
				continue
			}
			m, arr, _ := e.candidate(pr)
			if m == nil {
				continue
			}
			if arr < bestArr ||
				(arr == bestArr && bestPR != nil && pr.owner.rank < bestPR.owner.rank) {
				bestPR, bestMsg, bestArr = pr, m, arr
			}
		}
	}
	if bestPR == nil {
		return false
	}
	e.bind(bestPR, bestMsg)
	e.pruneAnyStuck()
	return true
}

func (e *Engine) retryRankAny(ps *procState, force bool) bool {
	progressed := false
	for _, pr := range ps.postedRecvs {
		if pr.matched || pr.src != AnySource {
			continue
		}
		if e.resolveAny(pr, force) {
			progressed = true
		}
	}
	return progressed
}

func (e *Engine) hasOpenAny(ps *procState) bool {
	for _, pr := range ps.postedRecvs {
		if !pr.matched && pr.src == AnySource {
			return true
		}
	}
	return false
}

func (e *Engine) pruneAnyStuck() {
	kept := e.anyStuck[:0]
	for _, ps := range e.anyStuck {
		if e.hasOpenAny(ps) {
			kept = append(kept, ps)
		}
	}
	e.anyStuck = kept
}

// bind commits a (receive, message) match, computes all timings, and
// wakes whichever ranks the resolution unblocks. On return m may have
// been recycled: callers must not touch it again.
func (e *Engine) bind(pr *postedRecv, m *message) {
	pr.matched = true
	m.matched = true
	if !m.senderFree {
		e.costedInFlight--
	}
	ps := pr.owner

	if m.rdv && !m.timingKnown {
		path := e.cfg.Deployment.Path(m.src, m.dst)
		start := e.nicClaimTx(m.src, m.dst, m.sendPost, m.size)
		r := path.Rendezvous(start, pr.post, m.size)
		// A rendezvous sender synchronises with the receive, so the
		// injected latency holds both sides back.
		m.senderDone = r.SenderDone.Add(m.faultDelay)
		m.arrival = e.nicClaimRx(m.src, m.dst, r.Arrival, m.size).Add(m.faultDelay)
		m.timingKnown = true
	}

	complete := vtime.Max(pr.post, m.arrival)
	if !ps.mode.CommFree {
		path := e.cfg.Deployment.Path(m.src, m.dst)
		complete = complete.Add(path.RecvOverhead)
	}
	rs := pr.req
	pr.req = nil
	rs.done = true
	rs.complete = complete
	rs.info = PtPInfo{
		Start: pr.post, End: complete,
		Src: m.src, Dst: m.dst, Tag: m.tag, Size: m.size,
		SendSeq: m.uid, Payload: m.payload,
	}
	e.slice(ps.rank, "recv", "comm", pr.post, complete)

	src := m.src
	if m.senderReq != nil {
		e.finishRendezvous(m)
	}
	// Compacting recycles the matched prefix, possibly including m.
	e.compactChan(e.chanFor(src, ps.rank))
	e.maybeWake(ps)
}

// finishRendezvous completes the sender side of a matched rendezvous
// message and detaches the request so the message can be recycled.
func (e *Engine) finishRendezvous(m *message) {
	rs := m.senderReq
	if rs == nil || rs.done {
		return
	}
	rs.done = true
	rs.complete = m.senderDone
	rs.info.End = m.senderDone
	m.senderReq = nil
	e.slice(m.src, "send", "comm", rs.info.Start, m.senderDone)
	e.maybeWake(e.procs[m.src])
}

// maybeWake promotes a stuck rank to ready if its wait set resolved.
// The running rank is left alone; its own handler completes the wait.
func (e *Engine) maybeWake(ps *procState) {
	if ps.status != stStuck || ps.waitSet == nil {
		return
	}
	for _, id := range ps.waitSet {
		if rs := ps.findReq(id); rs == nil || !rs.done {
			return
		}
	}
	if !e.completeWait(ps) {
		return
	}
	ps.wake = ps.clock
	ps.status = stReady
	ps.block = blockInfo{}
	e.pushReady(ps)
}

// pruneMatched drops a rank's matched posted receives and recycles
// them; nothing references a matched posted receive once bind has
// detached its request.
func (e *Engine) pruneMatched(ps *procState) {
	kept := ps.postedRecvs[:0]
	for _, pr := range ps.postedRecvs {
		if !pr.matched {
			kept = append(kept, pr)
			continue
		}
		*pr = postedRecv{}
		e.prFree = append(e.prFree, pr)
	}
	tail := ps.postedRecvs[len(kept):]
	for i := range tail {
		tail[i] = nil
	}
	ps.postedRecvs = kept
}
