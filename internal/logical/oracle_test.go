package logical

import (
	"fmt"

	"pas2p/internal/trace"
)

// orderOracle is the in-core PAS2P order that Order replaced: the
// Table 1 queue algorithm run over a materialised copy of the trace,
// then the permutation, clamp and tick passes OrderLamport still
// shares. The equivalence tests hold Order and StreamOrder to it.
func orderOracle(tr *trace.Trace) (*Logical, error) {
	return buildLogical(tr, assignPAS2P)
}

// assignPAS2P implements the paper's ordering via the queue algorithm
// of Table 1: the first event of every process seeds the queue; events
// are assigned in causal order, receives pinned to LT(send)+1 (never
// afterwards, except that an event cannot precede its own process
// predecessor), collectives to max(member LT)+1.
func assignPAS2P(tr *trace.Trace, per [][]trace.Event) error {
	type collWait struct {
		arrived int
		procs   []int32
	}
	next := make([]int, tr.Procs) // per-process program pointer
	hw := make([]int64, tr.Procs) // per-process high-water LT
	for p := range hw {
		hw[p] = -1
	}
	sendLT := map[[2]int64]int64{} // (src, sendSeq) -> LT
	collWaits := map[[2]int64]*collWait{}
	sendSeq := make([]int64, tr.Procs)
	parked := make([]bool, tr.Procs)

	queue := make([]int32, 0, tr.Procs)
	for p := 0; p < tr.Procs; p++ {
		if len(per[p]) > 0 {
			queue = append(queue, int32(p))
		}
	}
	assigned, total := 0, len(tr.Events)
	// visits counts queue pops since the last state change (an event
	// assignment or a collective arrival). During a run of failed
	// receive visits the queue length is constant, so once visits
	// exceeds it some entry has been retried with no state change in
	// between — nothing it depends on can ever appear, so the relations
	// are inconsistent. Counting whole no-progress passes this way is
	// immune to queue-length fluctuations that made a per-visit spin
	// counter fragile on deep receive-dependency chains.
	visits := 0
	for assigned < total {
		if len(queue) == 0 {
			return fmt.Errorf("logical: trace %q stalls with %d/%d events assigned (inconsistent relations)",
				tr.AppName, assigned, total)
		}
		p := queue[0]
		queue = queue[1:]
		evs := per[p]
		if next[p] >= len(evs) {
			continue
		}
		e := &evs[next[p]]
		switch e.Kind {
		case trace.Send:
			lt := hw[p] + 1
			e.LT = lt
			hw[p] = lt
			sendLT[[2]int64{int64(p), sendSeq[p]}] = lt
			sendSeq[p]++
			visits = 0
		case trace.Recv:
			slt, ok := sendLT[[2]int64{e.RelA, e.RelB}]
			if !ok {
				// The matching send is not assigned yet; revisit later.
				queue = append(queue, p)
				visits++
				if visits > len(queue) {
					return fmt.Errorf("logical: trace %q: full pass over %d pending procs made no progress; receive on proc %d references send (%d,%d) that never resolves",
						tr.AppName, len(queue), p, e.RelA, e.RelB)
				}
				continue
			}
			// The PAS2P pin: reception at LT(send)+1, never afterwards.
			// The raw value may sit below this process's high water;
			// the permutation and clamp passes normalise that.
			lt := slt + 1
			e.LT = lt
			if lt > hw[p] {
				hw[p] = lt
			}
			visits = 0
		case trace.Collective:
			key := [2]int64{e.RelA, e.RelB}
			cw := collWaits[key]
			if cw == nil {
				cw = &collWait{}
				collWaits[key] = cw
			}
			cw.arrived++
			cw.procs = append(cw.procs, p)
			if cw.arrived < int(e.Involved) {
				parked[p] = true // released by the last arrival
				visits = 0       // an arrival is a state change
				continue
			}
			// Last arrival: LT = max over members' current LT + 1.
			var maxLT int64 = -1
			for _, m := range cw.procs {
				if hw[m] > maxLT {
					maxLT = hw[m]
				}
			}
			lt := maxLT + 1
			for _, m := range cw.procs {
				me := &per[m][next[m]]
				me.LT = lt
				hw[m] = lt
				next[m]++
				assigned++
				parked[m] = false
				if next[m] < len(per[m]) {
					queue = append(queue, m)
				}
			}
			delete(collWaits, key)
			visits = 0
			continue
		default:
			return fmt.Errorf("logical: trace %q: unknown event kind %d", tr.AppName, e.Kind)
		}
		next[p]++
		assigned++
		if next[p] < len(evs) {
			queue = append(queue, p)
		}
	}
	for p, pk := range parked {
		if pk {
			return fmt.Errorf("logical: trace %q: proc %d parked at a collective forever", tr.AppName, p)
		}
	}
	return nil
}
