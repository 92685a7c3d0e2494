package sim

import (
	"pas2p/internal/network"
	"pas2p/internal/vtime"
)

// errAborted is the panic value used to unwind rank coroutines when
// the engine aborts a run.
var errAborted = &struct{ s string }{"sim: run aborted"}

// Proc is a rank's handle onto the simulation. All methods must be
// called from the rank's own coroutine (the Body function); they block
// in virtual time as the corresponding MPI operations would.
type Proc struct {
	eng *Engine
	st  *procState
}

// Rank returns this process's rank id.
func (p *Proc) Rank() int { return p.st.rank }

// Size returns the number of ranks in the run.
func (p *Proc) Size() int { return p.eng.n }

// Now returns the rank's current virtual clock.
func (p *Proc) Now() vtime.Time { return p.st.clock }

// call applies one operation directly on the rank's own coroutine —
// legal because only one rank or the scheduler runs at a time, so the
// rank has exclusive access to the engine while scheduled. Only when
// the operation blocks does the rank park, by yielding to the
// scheduler, which resumes it once the outcome is written; a
// non-blocking operation switches to nothing at all. Either way the
// outcome lands in the rank's pending slot, which call returns:
// nothing is copied on the way, and the caller reads back only the
// field it needs. A parked rank the engine aborts unwinds with
// errAborted.
func (p *Proc) call(req *request) *result {
	if p.eng.handle(p.st, req) {
		if !p.st.yield(struct{}{}) || p.st.pending.aborted {
			panic(errAborted)
		}
	}
	return &p.st.pending
}

// Advance consumes virtual compute time (already converted by the
// caller via the deployment's ComputeTime, or a raw duration for
// overheads). The rank's mode may scale or nullify it.
func (p *Proc) Advance(d vtime.Duration) {
	if d <= 0 {
		return
	}
	p.call(&request{kind: opAdvance, dur: d})
}

// SetMode changes how this rank's subsequent operations are costed.
func (p *Proc) SetMode(m Mode) {
	p.call(&request{kind: opSetMode, mode: m})
}

// Retire puts the rank in free mode for good: computation costs
// nothing and communication is instantaneous for the rest of the run,
// and a later SetMode is an engine error. Once every live rank has
// retired and nothing costed is still in flight, the engine ends the
// run without simulating the rest; Finish is the same as if the run had
// gone to completion.
func (p *Proc) Retire() {
	p.call(&request{kind: opRetire})
}

// Mode returns the rank's current costing mode.
func (p *Proc) Mode() Mode { return p.st.mode }

// Send transmits size bytes (with an optional payload of real data) to
// dst and blocks until the send completes locally (eager) or the
// transfer finishes (rendezvous). It reports the operation's timing.
func (p *Proc) Send(dst, tag, size int, payload any) PtPInfo {
	return p.call(&request{kind: opSend, peer: dst, tag: tag, size: size, payload: payload}).ptp
}

// Recv blocks until a matching message (src/tag may be AnySource /
// AnyTag) is delivered, returning its metadata and payload.
func (p *Proc) Recv(src, tag int) PtPInfo {
	res := p.call(&request{kind: opRecv, peer: src, tag: tag})
	info := res.ptp
	res.ptp.Payload = nil // the slot must not keep the payload alive
	return info
}

// Isend starts a send and returns a request id to pass to Wait.
func (p *Proc) Isend(dst, tag, size int, payload any) int {
	return p.call(&request{kind: opIsend, peer: dst, tag: tag, size: size, payload: payload}).reqID
}

// Irecv posts a receive and returns a request id to pass to Wait.
func (p *Proc) Irecv(src, tag int) int {
	return p.call(&request{kind: opIrecv, peer: src, tag: tag}).reqID
}

// Wait blocks until all given requests complete and returns their
// timings in argument order. The returned slice is one of the rank's
// own wait buffers, so Wait allocates nothing; callers may rely on it
// until the rank's next Wait. The two buffers alternate, so that Wait
// leaves it intact and the one after overwrites it, payloads
// included.
func (p *Proc) Wait(ids ...int) []PtPInfo {
	if len(ids) == 0 {
		return nil
	}
	// The ids go into the rank's wait buffer rather than the request,
	// so the caller's slice never escapes.
	p.st.waitBuf = append(p.st.waitBuf[:0], ids...)
	res := p.call(&request{kind: opWait})
	ptps := res.ptps
	res.ptps = nil // the slot keeps no reference to the buffer
	return ptps
}

// TimelineOn reports whether this run records a timeline, so callers
// can skip building annotation strings that would be dropped.
func (p *Proc) TimelineOn() bool { return p.eng.tl != nil }

// Annotate emits an instant event on this rank's timeline track at the
// current virtual time; a no-op when no timeline is recording. Safe to
// call from the rank's own coroutine: the timeline is internally
// locked and only one rank runs at a time anyway.
func (p *Proc) Annotate(name string) {
	p.eng.instant(p.st.rank, name, p.st.clock)
}

// Collective executes one synchronising collective operation over the
// given members (which must include the caller). ctx distinguishes
// communicators; every member must call collectives on a ctx in the
// same order. The returned CollInfo carries all members' payload
// contributions so the caller can apply the operation's data
// semantics.
func (p *Proc) Collective(op network.CollectiveOp, ctx int, members []int, root, size int, payload any) CollInfo {
	res := p.call(&request{
		kind: opCollective, collOp: op, collCtx: ctx,
		collMembers: members, collRoot: root, size: size, payload: payload,
	})
	info := res.coll
	res.coll.Payloads = nil
	return info
}
