package sim

import (
	"fmt"

	"pas2p/internal/network"
	"pas2p/internal/vtime"
)

// handleCollective implements synchronising collectives. Every member
// of the communicator must call the same operation in the same program
// order; the operation completes for all members at
// max(arrival clocks) + algorithmic cost.
func (e *Engine) handleCollective(ps *procState, req *request) (blocked bool) {
	members := req.collMembers
	idx := -1
	for i, m := range members {
		if m == ps.rank {
			idx = i
		}
		if m < 0 || m >= e.n {
			e.err = fmt.Errorf("rank %d: collective with invalid member %d", ps.rank, m)
			return true
		}
	}
	if idx < 0 {
		e.err = fmt.Errorf("rank %d: called a collective it is not a member of", ps.rank)
		return true
	}

	seq := ps.collSeq[req.collCtx]
	ps.collSeq[req.collCtx] = seq + 1
	key := collKey{ctx: req.collCtx, seq: seq}

	cs := e.colls[key]
	if cs == nil {
		cs = &collState{
			op:       int(req.collOp),
			members:  members,
			root:     req.collRoot,
			size:     req.size,
			arrivals: make([]vtime.Time, len(members)),
			payloads: make([]any, len(members)),
			freeAll:  true,
		}
		e.colls[key] = cs
	} else {
		if cs.op != int(req.collOp) || cs.root != req.collRoot ||
			len(cs.members) != len(members) {
			e.err = fmt.Errorf("rank %d: collective mismatch at ctx %d seq %d: %v vs %v",
				ps.rank, req.collCtx, seq, network.CollectiveOp(cs.op), req.collOp)
			return true
		}
		if req.size > cs.size {
			cs.size = req.size
		}
	}

	cs.arrived++
	cs.arrivals[idx] = ps.clock
	cs.payloads[idx] = req.payload
	if ps.clock > cs.tmax {
		cs.tmax = ps.clock
	}
	if !ps.mode.CommFree {
		cs.freeAll = false
	}

	if cs.arrived < len(members) {
		ps.status = stStuck
		ps.block = blockInfo{kind: bkColl, collOp: req.collOp, collCtx: req.collCtx, collSeq: seq}
		return true
	}

	// Last arrival: cost the operation and release everyone.
	delete(e.colls, key)
	e.stats.Collectives++
	ends := make([]vtime.Time, len(members))
	if cs.freeAll {
		for i := range ends {
			ends[i] = cs.tmax
		}
	} else if e.cfg.AlgorithmicCollectives {
		rootIdx := 0
		for i, m := range members {
			if m == cs.root {
				rootIdx = i
			}
		}
		offsets := network.CollectiveSchedule(req.collOp, members, rootIdx, cs.size,
			func(a, b int) network.Params { return e.cfg.Deployment.Path(a, b) })
		for i := range ends {
			ends[i] = cs.tmax.Add(offsets[i])
		}
	} else {
		path := e.cfg.Deployment.CollectivePath(members)
		end := cs.tmax.Add(path.CollectiveCost(req.collOp, len(members), cs.size))
		for i := range ends {
			ends[i] = end
		}
	}

	if e.tl != nil && !cs.freeAll {
		opName := req.collOp.String()
		for i, m := range members {
			e.slice(m, opName, "collective", cs.arrivals[i], ends[i])
		}
	}

	// Every member's outcome goes straight into its pending slot: the
	// caller's for its inline return, the parked members' before they
	// are made ready.
	for i, m := range members {
		mp := e.procs[m]
		mp.pending.coll = CollInfo{
			Op: req.collOp, Ctx: req.collCtx, Seq: seq,
			Start: cs.arrivals[i], End: ends[i],
			Root: cs.root, Size: cs.size,
			Members: members, Payloads: cs.payloads,
		}
		mp.clock = ends[i]
		if mp == ps {
			continue
		}
		mp.wake = ends[i]
		mp.status = stReady
		mp.block = blockInfo{}
		e.pushReady(mp)
	}
	return false
}
