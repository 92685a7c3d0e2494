package logical

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"pas2p/internal/apps"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/trace"
)

// collectTicks drains a TickReader into an owned slice.
func collectTicks(t *testing.T, r *TickReader) []Tick {
	t.Helper()
	var out []Tick
	for {
		tk, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("stream tick %d: %v", len(out), err)
		}
		if tk.Index != len(out) {
			t.Fatalf("tick index %d, want %d", tk.Index, len(out))
		}
		out = append(out, Tick{Index: tk.Index, Slots: append([]TickEvent(nil), tk.Slots...)})
	}
}

// inCoreTicks projects an in-core Logical onto the streaming Tick
// representation for comparison. A Logical does not keep source
// positions, so Pos stays zero.
func inCoreTicks(l *Logical) []Tick {
	out := make([]Tick, len(l.Ticks))
	for t, slots := range l.Ticks {
		tk := Tick{Index: t}
		for _, s := range slots {
			e := &l.Trace.Events[s.Event]
			tk.Slots = append(tk.Slots, TickEvent{
				Proc: s.Proc, Sig: e.CommSignature(), Size: e.Size,
				Compute: e.ComputeBefore, Exit: e.Exit,
			})
		}
		out[t] = tk
	}
	return out
}

func assertSameTicks(t *testing.T, name string, want, got []Tick) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d streamed ticks, in-core has %d", name, len(got), len(want))
	}
	for i := range want {
		if len(want[i].Slots) != len(got[i].Slots) {
			t.Fatalf("%s: tick %d has %d streamed slots, in-core %d",
				name, i, len(got[i].Slots), len(want[i].Slots))
		}
		for j := range want[i].Slots {
			g := got[i].Slots[j]
			g.Pos = 0 // not projected by inCoreTicks
			if want[i].Slots[j] != g {
				t.Fatalf("%s: tick %d slot %d diverges:\n  in-core: %+v\n  stream:  %+v",
					name, i, j, want[i].Slots[j], got[i].Slots[j])
			}
		}
	}
}

// assertStreamMatchesOrder is the core logical-stage property:
// StreamOrder must emit the exact tick sequence the in-core oracle
// builds, both over an in-memory source and over an encoded
// tracefile's rank streams, and Order must collect the oracle's
// Logical.
func assertStreamMatchesOrder(t *testing.T, name string, tr *trace.Trace) {
	t.Helper()
	l, err := orderOracle(tr)
	if err != nil {
		t.Fatalf("%s: oracle order: %v", name, err)
	}
	want := inCoreTicks(l)
	assertOrderMatchesOracle(t, name, tr)

	r, err := StreamOrder(SourceFromTrace(tr))
	if err != nil {
		t.Fatalf("%s: stream order: %v", name, err)
	}
	assertSameTicks(t, name+"/memory", want, collectTicks(t, r))

	// And through the real on-disk path: encode, reopen, rank streams.
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	br, err := trace.NewBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%s: block reader: %v", name, err)
	}
	rs, err := br.RankStreams()
	if err != nil {
		t.Fatalf("%s: rank streams: %v", name, err)
	}
	r2, err := StreamOrder(rs)
	if err != nil {
		t.Fatalf("%s: stream order over file: %v", name, err)
	}
	assertSameTicks(t, name+"/file", want, collectTicks(t, r2))
}

func TestStreamOrderMatchesOrder(t *testing.T) {
	cases := []struct {
		name  string
		procs int
		body  func(c *mpi.Comm)
	}{
		{"pingpong", 2, pingBody(5)},
		{"ring+barrier", 8, func(c *mpi.Comm) {
			n := c.Size()
			for i := 0; i < 12; i++ {
				c.Compute(1e4)
				c.SendrecvN((c.Rank()+1)%n, 0, 1024, (c.Rank()+n-1)%n, 0)
				if i%3 == 2 {
					c.Barrier()
				}
			}
		}},
		{"collective-heavy", 6, func(c *mpi.Comm) {
			for i := 0; i < 8; i++ {
				c.Compute(5e3)
				c.Allreduce([]float64{1, 2, 3}, mpi.Sum)
				c.Barrier()
			}
		}},
		{"masterworker", 5, func(c *mpi.Comm) {
			if c.Rank() == 0 {
				for r := 1; r < c.Size(); r++ {
					c.Send(r, 0, []float64{1, 2})
				}
				for r := 1; r < c.Size(); r++ {
					c.Recv(r, 1)
				}
			} else {
				c.Recv(0, 0)
				c.Compute(2e4)
				c.Send(0, 1, []float64{3})
			}
		}},
	}
	for _, tc := range cases {
		tr := traceOf(t, machine.ClusterA(), tc.procs, tc.body)
		assertStreamMatchesOrder(t, tc.name, tr)
	}
}

// TestStreamOrderDeepRecvChain: the stall detector's
// full-pass-counting behaviour must survive streaming — deep chains
// resolve, and the tick sequence still matches.
func TestStreamOrderDeepRecvChain(t *testing.T) {
	for _, depth := range []int{3, 16, 64, 256} {
		assertStreamMatchesOrder(t, "chain", chainTrace(t, depth))
	}
}

// TestStreamOrderDetectsStall: genuinely inconsistent relations fail
// with the oracle's exact error text, matching ErrNoOrder.
func TestStreamOrderDetectsStall(t *testing.T) {
	mk := func(me, peer int32) []trace.Event {
		return []trace.Event{
			{Process: me, Number: 0, Kind: trace.Recv, Involved: 2, CollOp: -1,
				Peer: peer, Tag: 0, Enter: 0, Exit: 5, RelA: int64(peer), RelB: 0},
			{Process: me, Number: 1, Kind: trace.Send, Involved: 2, CollOp: -1,
				Peer: peer, Tag: 0, Enter: 6, Exit: 7, RelA: int64(me), RelB: 0},
		}
	}
	tr, err := trace.NewTrace("cycle", 2, [][]trace.Event{mk(0, 1), mk(1, 0)}, 100)
	if err != nil {
		t.Fatal(err)
	}
	_, inCoreErr := orderOracle(tr)
	if inCoreErr == nil {
		t.Fatal("oracle order accepted a receive cycle")
	}
	r, err := StreamOrder(SourceFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	var streamErr error
	for {
		_, err := r.Next()
		if err != nil {
			if err != io.EOF {
				streamErr = err
			}
			break
		}
	}
	if streamErr == nil {
		t.Fatal("streaming order accepted a receive cycle")
	}
	if streamErr.Error() != inCoreErr.Error() {
		t.Fatalf("stall errors diverge:\n  in-core: %v\n  stream:  %v", inCoreErr, streamErr)
	}
	if !errors.Is(streamErr, ErrNoOrder) {
		t.Fatalf("stall error %v does not match ErrNoOrder", streamErr)
	}
	// A failed reader keeps returning its error.
	if _, err := r.Next(); err == nil || err.Error() != streamErr.Error() {
		t.Fatalf("Next after failure = %v, want sticky error", err)
	}
}

// TestStreamOrderEmptyTrace mirrors TestOrderEmptyTrace.
func TestStreamOrderEmptyTrace(t *testing.T) {
	tr, err := trace.NewTrace("empty", 2, [][]trace.Event{nil, nil}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StreamOrder(SourceFromTrace(tr)); err == nil {
		t.Fatal("StreamOrder accepted an empty trace")
	}
}

// TestStreamOrderBoundedQueues pins the memory property the streaming
// order exists for: on a long barrier-synced ring and on a 64-rank
// wavefront, the per-process queues (finalised events and open receive
// runs) and the send-LT frontier stay bounded instead of growing with
// the trace.
func TestStreamOrderBoundedQueues(t *testing.T) {
	ring := traceOf(t, machine.ClusterA(), 4, func(c *mpi.Comm) {
		n := c.Size()
		for i := 0; i < 500; i++ {
			c.Compute(1e3)
			c.SendrecvN((c.Rank()+1)%n, 0, 64, (c.Rank()+n-1)%n, 0)
			if i%5 == 4 {
				c.Barrier()
			}
		}
	})
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"ring/4", ring},
		{"lu/64", appTrace(t, "lu", 64, "classA")},
	} {
		r, err := StreamOrder(SourceFromTrace(tc.tr))
		if err != nil {
			t.Fatal(err)
		}
		maxPend := 0
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			pend := liveSlots(r.sends)
			for p := 0; p < r.procs; p++ {
				pend += len(r.mq[p]) - r.mqHead[p]
			}
			if pend > maxPend {
				maxPend = pend
			}
		}
		t.Logf("%s: live frontier peaked at %d entries for %d events", tc.name, maxPend, len(tc.tr.Events))
		// The live frontier must stay well below the event count (loose
		// bound: 4400 ring events peak near 20 entries, and lu's
		// 180032 near 3300).
		if maxPend > len(tc.tr.Events)/4 {
			t.Fatalf("%s: streaming frontier reached %d pending entries for a %d-event trace; memory is not bounded",
				tc.name, maxPend, len(tc.tr.Events))
		}
	}
}

// lateMeta hides its source's event count and AET until every stream
// has ended, as a traced run's recording does while the run goes on.
type lateMeta struct {
	EventSource
	ended []bool
	open  int // streams not yet ended
}

func newLateMeta(src EventSource) *lateMeta {
	n := src.Meta().Procs
	return &lateMeta{EventSource: src, ended: make([]bool, n), open: n}
}

func (s *lateMeta) Meta() trace.Meta {
	m := s.EventSource.Meta()
	if s.open > 0 {
		m.Events, m.AET = 0, 0
	}
	return m
}

func (s *lateMeta) NextEvent(p int, dst *trace.Event) (bool, error) {
	ok, err := s.EventSource.NextEvent(p, dst)
	if !ok && err == nil && !s.ended[p] {
		s.ended[p] = true
		s.open--
	}
	return ok, err
}

// TestStreamOrderLateEventCount: StreamOrder needs no event count up
// front. Over sources that give none until their streams end, it
// yields Order's ticks for several apps, and its Meta is then the
// source's final header.
func TestStreamOrderLateEventCount(t *testing.T) {
	for _, name := range []string{"cg", "lu", "sweep3d", "smg2000", "masterworker", "ep"} {
		app, err := apps.Make(name, 8, "")
		if err != nil {
			t.Fatal(err)
		}
		tr := traceOf(t, machine.ClusterA(), 8, app.Body)
		l, err := Order(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src := newLateMeta(SourceFromTrace(tr))
		r, err := StreamOrder(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := r.Meta().Events; got != 0 {
			t.Fatalf("%s: Meta reports %d events before the streams ended", name, got)
		}
		assertSameTicks(t, name, inCoreTicks(l), collectTicks(t, r))
		if got, want := r.Meta(), tr.Meta(); got != want {
			t.Errorf("%s: final Meta %+v, want %+v", name, got, want)
		}
	}
}

// TestStreamOrderChecksFinalCount: a source whose final header counts
// other than the events its streams held fails with the header-count
// error, once the streams have ended.
func TestStreamOrderChecksFinalCount(t *testing.T) {
	tr := traceOf(t, machine.ClusterA(), 2, pingBody(3))
	src := &countOff{EventSource: SourceFromTrace(tr)}
	r, err := StreamOrder(src)
	if err != nil {
		t.Fatal(err)
	}
	for err == nil {
		_, err = r.Next()
	}
	want := fmt.Sprintf("logical: source counts %d events across processes, header declares %d",
		len(tr.Events), len(tr.Events)+1)
	if !errors.Is(err, ErrNoOrder) || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// countOff's header declares one event more than its streams hold.
type countOff struct{ EventSource }

func (s *countOff) Meta() trace.Meta {
	m := s.EventSource.Meta()
	m.Events++
	return m
}
