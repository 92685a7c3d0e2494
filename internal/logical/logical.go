// Package logical implements the machine-independent application model
// of PAS2P (§3.2 of the paper): it converts the physical per-process
// traces into a single logical trace by assigning every event a
// logical time (LT) with the PAS2P ordering — a Lamport-inspired rule
// where a receive is pinned to its send's LT+1 rather than to its
// nondeterministic arrival position, and a collective takes the
// maximum participant LT plus one — and then builds the tick table
// (at most one event per process per tick) that the phase-extraction
// stage consumes.
//
// A pure Lamport ordering over the physical occurrence order is also
// provided as the baseline the paper improved upon; the ablation
// benchmarks compare phase counts and prediction quality between the
// two.
package logical

import (
	"fmt"
	"io"
	"sort"

	"pas2p/internal/trace"
)

// Slot locates one event inside a tick.
type Slot struct {
	// Proc is the process the event belongs to.
	Proc int32
	// Event indexes into the logical trace's Events.
	Event int
}

// Logical is the machine-independent application model: the input
// trace with LTs assigned, organised as a tick table.
type Logical struct {
	// Trace is the input trace; its events carry assigned LTs equal to
	// their final tick index.
	Trace *trace.Trace
	// Ticks holds, for every logical time unit, the events occurring
	// at it, sorted by process. Every tick has at least one event and
	// at most one event per process.
	Ticks [][]Slot
}

// NumTicks returns the length of the logical trace in ticks.
func (l *Logical) NumTicks() int { return len(l.Ticks) }

// EventAt returns the index of the event of process p at tick t, or -1
// if the process has no event there.
func (l *Logical) EventAt(t int, p int32) int {
	slots := l.Ticks[t]
	i := sort.Search(len(slots), func(i int) bool { return slots[i].Proc >= p })
	if i < len(slots) && slots[i].Proc == p {
		return slots[i].Event
	}
	return -1
}

// EachSig calls yield for every event at tick t in ascending process
// order, passing the owning process and the event's communication
// signature. It is the per-tick iteration the phase stage's repeat
// scan and fingerprint index consume without reaching into Event
// structs themselves.
func (l *Logical) EachSig(t int, yield func(proc int32, sig uint64)) {
	for _, s := range l.Ticks[t] {
		yield(s.Proc, l.Trace.Events[s.Event].CommSignature())
	}
}

// Order assigns PAS2P logical times to a copy of the trace and builds
// the tick table. The input trace is not modified.
//
// It drains the streaming engine (StreamOrder over the in-memory
// trace), so the in-core and the out-of-core order are one algorithm.
// The collector copies the events once, still grouped by process,
// then walks the ticks: each slot names its event by per-process
// source position, so the copy takes the receive-run permutation's
// new order, LT = tick, and receives renumbered to their new place.
func Order(tr *trace.Trace) (*Logical, error) {
	src := newTraceSource(tr)
	r, err := StreamOrder(src)
	if err != nil {
		return nil, err
	}
	base := make([]int, tr.Procs) // index of process p's first event
	n := make([]int, tr.Procs)    // events of process p collected so far
	for p := 1; p < tr.Procs; p++ {
		base[p] = base[p-1] + len(src.per[p-1])
	}
	events := append([]trace.Event(nil), tr.Events...)
	slots := make([]Slot, 0, len(tr.Events)) // one backing array for every tick
	var ticks [][]Slot
	for {
		tk, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		first := len(slots)
		for _, s := range tk.Slots {
			i := base[s.Proc] + n[s.Proc]
			e := &events[i]
			if s.Pos != n[s.Proc] { // moved by the receive-run permutation
				*e = src.per[s.Proc][s.Pos]
			}
			e.LT = int64(tk.Index)
			if e.Kind == trace.Recv {
				e.Number = int64(n[s.Proc])
			}
			n[s.Proc]++
			slots = append(slots, Slot{Proc: s.Proc, Event: i})
		}
		ticks = append(ticks, slots[first:len(slots):len(slots)])
	}
	cp := &trace.Trace{AppName: tr.AppName, Procs: tr.Procs, AET: tr.AET, Events: events}
	return &Logical{Trace: cp, Ticks: ticks}, nil
}

// OrderLamport assigns classic Lamport logical times driven by the
// physical occurrence order — the baseline whose receive
// nondeterminism PAS2P ordering removes.
func OrderLamport(tr *trace.Trace) (*Logical, error) {
	return buildLogical(tr, assignLamport)
}

func buildLogical(tr *trace.Trace, assign func(*trace.Trace, [][]trace.Event) error) (*Logical, error) {
	if tr == nil || len(tr.Events) == 0 {
		return nil, noOrderf("logical: empty trace")
	}
	cp := &trace.Trace{AppName: tr.AppName, Procs: tr.Procs, AET: tr.AET,
		Events: append([]trace.Event(nil), tr.Events...)}
	per := cp.PerProcess()
	if err := assign(cp, per); err != nil {
		return nil, err
	}
	permuteRecvRuns(per)
	clampMonotone(per)
	ticks, err := buildTicks(cp, per)
	if err != nil {
		return nil, err
	}
	return &Logical{Trace: cp, Ticks: ticks}, nil
}

// assignLamport walks events in physical occurrence order and applies
// the classic rules: every event advances its process clock by one;
// a receive additionally takes max with the send's LT.
func assignLamport(tr *trace.Trace, per [][]trace.Event) error {
	type ref struct {
		p int32
		i int
	}
	order := make([]ref, 0, len(tr.Events))
	for p := range per {
		for i := range per[p] {
			order = append(order, ref{int32(p), i})
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := &per[order[a].p][order[a].i], &per[order[b].p][order[b].i]
		if x.Exit != y.Exit {
			return x.Exit < y.Exit
		}
		if x.Process != y.Process {
			return x.Process < y.Process
		}
		return x.Number < y.Number
	})
	cur := make([]int64, tr.Procs)
	for p := range cur {
		cur[p] = -1
	}
	sends := newSendTable(tr.Procs)
	collLT := map[[2]int64]int64{}
	for _, r := range order {
		e := &per[r.p][r.i]
		switch e.Kind {
		case trace.Send:
			e.LT = cur[r.p] + 1
			sends.put(r.p, e.LT)
		case trace.Recv:
			slt, ok := sends.take(e.RelA, e.RelB)
			if !ok {
				if sends.sent(e.RelA, e.RelB) {
					return noOrderf("logical: lamport: send (%d,%d) received twice (proc %d #%d)", e.RelA, e.RelB, r.p, r.i)
				}
				return noOrderf("logical: lamport: receive before its send in physical order (proc %d #%d)", r.p, r.i)
			}
			lt := cur[r.p] + 1
			if slt+1 > lt {
				lt = slt + 1
			}
			e.LT = lt
		case trace.Collective:
			key := [2]int64{e.RelA, e.RelB}
			lt, ok := collLT[key]
			if !ok {
				lt = cur[r.p] + 1
			} else if cur[r.p]+1 > lt {
				lt = cur[r.p] + 1
			}
			collLT[key] = lt
			e.LT = lt
		}
		if e.LT > cur[r.p] {
			cur[r.p] = e.LT
		}
	}
	// Second pass: collective events across members must share the
	// final (largest) LT of their occurrence.
	for p := range per {
		for i := range per[p] {
			e := &per[p][i]
			if e.Kind == trace.Collective {
				e.LT = collLT[[2]int64{e.RelA, e.RelB}]
			}
		}
	}
	return nil
}

// permuteRecvRuns sorts maximal runs of consecutive receive events of
// each process by LT (the paper's "permutation only inside the
// LTRecvs"), normalising arrival nondeterminism.
func permuteRecvRuns(per [][]trace.Event) {
	for p := range per {
		evs := per[p]
		i := 0
		for i < len(evs) {
			if evs[i].Kind != trace.Recv {
				i++
				continue
			}
			j := i
			for j < len(evs) && evs[j].Kind == trace.Recv {
				j++
			}
			run := evs[i:j]
			sort.SliceStable(run, func(a, b int) bool { return run[a].LT < run[b].LT })
			// Renumber so per-process numbering stays consistent.
			for k := range run {
				run[k].Number = int64(i + k)
			}
			i = j
		}
	}
}

// clampMonotone enforces non-decreasing LTs along every process after
// the receive permutation: an event cannot logically precede its
// process predecessor, and equal LTs are separated by tick splitting.
func clampMonotone(per [][]trace.Event) {
	for p := range per {
		evs := per[p]
		for i := 1; i < len(evs); i++ {
			if evs[i].LT < evs[i-1].LT {
				evs[i].LT = evs[i-1].LT
			}
		}
	}
}

// buildTicks densifies (LT, same-process collision index) pairs into
// final tick numbers: strictly increasing along every process, at most
// one event per process per tick, aligned across processes. Event LTs
// are rewritten to their final tick.
func buildTicks(tr *trace.Trace, per [][]trace.Event) ([][]Slot, error) {
	type key struct {
		lt  int64
		sub int32
	}
	keys := make(map[key]struct{})
	subs := make([][]int32, len(per))
	for p := range per {
		evs := per[p]
		subs[p] = make([]int32, len(evs))
		var sub int32
		for i := range evs {
			if evs[i].LT < 0 {
				return nil, fmt.Errorf("logical: proc %d event %d has no LT", p, i)
			}
			if i > 0 {
				switch {
				case evs[i].LT < evs[i-1].LT:
					return nil, fmt.Errorf("logical: proc %d LT not monotone at event %d", p, i)
				case evs[i].LT == evs[i-1].LT:
					sub++
				default:
					sub = 0
				}
			}
			subs[p][i] = sub
			keys[key{evs[i].LT, sub}] = struct{}{}
		}
	}
	ordered := make([]key, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(a, b int) bool {
		if ordered[a].lt != ordered[b].lt {
			return ordered[a].lt < ordered[b].lt
		}
		return ordered[a].sub < ordered[b].sub
	})
	rank := make(map[key]int64, len(ordered))
	for i, k := range ordered {
		rank[k] = int64(i)
	}
	ticks := make([][]Slot, len(ordered))
	// per aliases tr.Events, so global indexes can be derived from the
	// per-process offsets.
	offsets := make([]int, len(per))
	off := 0
	for p := range per {
		offsets[p] = off
		off += len(per[p])
	}
	for p := range per {
		evs := per[p]
		for i := range evs {
			t := rank[key{evs[i].LT, subs[p][i]}]
			evs[i].LT = t
			ticks[t] = append(ticks[t], Slot{Proc: int32(p), Event: offsets[p] + i})
		}
	}
	for t := range ticks {
		sort.Slice(ticks[t], func(a, b int) bool { return ticks[t][a].Proc < ticks[t][b].Proc })
		for i := 1; i < len(ticks[t]); i++ {
			if ticks[t][i].Proc == ticks[t][i-1].Proc {
				return nil, fmt.Errorf("logical: two events of proc %d share tick %d", ticks[t][i].Proc, t)
			}
		}
	}
	return ticks, nil
}

// Validate checks the tick-table invariants.
func (l *Logical) Validate() error {
	if len(l.Ticks) == 0 {
		return fmt.Errorf("logical: no ticks")
	}
	seen := make([]int64, l.Trace.Procs)
	for p := range seen {
		seen[p] = -1
	}
	count := 0
	for t, slots := range l.Ticks {
		if len(slots) == 0 {
			return fmt.Errorf("logical: tick %d is empty", t)
		}
		for _, s := range slots {
			e := &l.Trace.Events[s.Event]
			if e.Process != s.Proc {
				return fmt.Errorf("logical: tick %d slot points at wrong process", t)
			}
			if e.LT != int64(t) {
				return fmt.Errorf("logical: event LT %d disagrees with tick %d", e.LT, t)
			}
			if int64(t) <= seen[s.Proc] {
				return fmt.Errorf("logical: proc %d ticks not strictly increasing at %d", s.Proc, t)
			}
			seen[s.Proc] = int64(t)
			count++
		}
	}
	if count != len(l.Trace.Events) {
		return fmt.Errorf("logical: tick table covers %d of %d events", count, len(l.Trace.Events))
	}
	return nil
}
