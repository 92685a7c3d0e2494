package logical

import (
	"testing"

	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

// traceOf runs a small app under instrumentation and returns its trace.
func traceOf(t testing.TB, cluster *machine.Cluster, procs int, body func(c *mpi.Comm)) *trace.Trace {
	t.Helper()
	d, err := machine.NewDeployment(cluster, procs, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpi.Run(mpi.App{Name: "t", Procs: procs, Body: body},
		mpi.RunConfig{Deployment: d, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Recording.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func pingBody(iters int) func(c *mpi.Comm) {
	return func(c *mpi.Comm) {
		for i := 0; i < iters; i++ {
			c.Compute(1e4)
			if c.Rank() == 0 {
				c.Send(1, 0, []float64{1})
				c.Recv(1, 1)
			} else {
				c.Recv(0, 0)
				c.Send(0, 1, []float64{2})
			}
		}
	}
}

func TestOrderPingPong(t *testing.T) {
	tr := traceOf(t, machine.ClusterA(), 2, pingBody(3))
	l, err := Order(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each iteration: send0(LT k), recv1(k+1) ... strictly interleaved.
	per := l.Trace.PerProcess()
	// Receive pinned to send+1.
	sends := map[[2]int64]int64{}
	for p := range per {
		for i := range per[p] {
			e := &per[p][i]
			if e.Kind == trace.Send {
				sends[[2]int64{e.RelA, e.RelB}] = e.LT
			}
		}
	}
	for p := range per {
		for i := range per[p] {
			e := &per[p][i]
			if e.Kind != trace.Recv {
				continue
			}
			slt := sends[[2]int64{e.RelA, e.RelB}]
			if e.LT < slt+1 {
				t.Errorf("recv LT %d earlier than send LT %d + 1", e.LT, slt)
			}
		}
	}
}

func TestOrderEmptyTrace(t *testing.T) {
	if _, err := Order(&trace.Trace{Procs: 1}); err == nil {
		t.Error("empty trace should fail")
	}
	if _, err := Order(nil); err == nil {
		t.Error("nil trace should fail")
	}
}

func TestOrderDoesNotMutateInput(t *testing.T) {
	tr := traceOf(t, machine.ClusterA(), 2, pingBody(2))
	if _, err := Order(tr); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		if tr.Events[i].LT != trace.NoLT {
			t.Fatal("Order mutated the input trace")
		}
	}
}

func TestCollectiveSharesTick(t *testing.T) {
	tr := traceOf(t, machine.ClusterA(), 4, func(c *mpi.Comm) {
		c.Compute(float64(1000 * (c.Rank() + 1)))
		c.Barrier()
		c.Allreduce([]float64{1}, mpi.Sum)
	})
	l, err := Order(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Two ticks total: barrier, allreduce; each with 4 events.
	if l.NumTicks() != 2 {
		t.Fatalf("ticks = %d, want 2", l.NumTicks())
	}
	for tk := 0; tk < 2; tk++ {
		if len(l.Ticks[tk]) != 4 {
			t.Errorf("tick %d has %d events, want 4", tk, len(l.Ticks[tk]))
		}
	}
}

func TestOnePerProcessPerTick(t *testing.T) {
	tr := traceOf(t, machine.ClusterB(), 8, func(c *mpi.Comm) {
		n := c.Size()
		for i := 0; i < 5; i++ {
			c.Compute(1e4)
			right := (c.Rank() + 1) % n
			left := (c.Rank() + n - 1) % n
			c.SendrecvN(right, 0, 800, left, 0)
			c.Allreduce([]float64{1}, mpi.Sum)
		}
	})
	l, err := Order(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// EventAt agrees with the tick table.
	for tk := range l.Ticks {
		for _, s := range l.Ticks[tk] {
			if got := l.EventAt(tk, s.Proc); got != s.Event {
				t.Fatalf("EventAt(%d,%d) = %d, want %d", tk, s.Proc, got, s.Event)
			}
		}
		if l.EventAt(tk, 99) != -1 {
			t.Fatal("EventAt for absent process should be -1")
		}
	}
}

func TestMachineIndependence(t *testing.T) {
	// The defining property of the application model: the logical
	// trace must be identical when the same program runs on different
	// clusters, although physical times differ everywhere.
	body := func(c *mpi.Comm) {
		n := c.Size()
		for i := 0; i < 4; i++ {
			c.Compute(float64(1e4 * (c.Rank() + 1)))
			peer := (c.Rank() + n/2) % n
			c.SendrecvN(peer, 0, 4096, peer, 0)
			if c.Rank() == 0 {
				for s := 1; s < n; s++ {
					c.RecvN(s, 1)
				}
			} else {
				c.SendN(0, 1, 64)
			}
			c.Barrier()
		}
	}
	var ref *Logical
	for _, cl := range []*machine.Cluster{machine.ClusterA(), machine.ClusterB(), machine.ClusterC()} {
		l, err := Order(traceOf(t, cl, 8, body))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = l
			continue
		}
		if l.NumTicks() != ref.NumTicks() {
			t.Fatalf("%s: %d ticks vs %d on reference", cl.Name, l.NumTicks(), ref.NumTicks())
		}
		for tk := range l.Ticks {
			if len(l.Ticks[tk]) != len(ref.Ticks[tk]) {
				t.Fatalf("%s: tick %d width differs", cl.Name, tk)
			}
			for i, s := range l.Ticks[tk] {
				r := ref.Ticks[tk][i]
				a, b := l.Trace.Events[s.Event], ref.Trace.Events[r.Event]
				if a.Process != b.Process || a.Kind != b.Kind || a.Size != b.Size || a.Tag != b.Tag {
					t.Fatalf("%s: tick %d slot %d event differs", cl.Name, tk, i)
				}
			}
		}
	}
}

func TestLamportBaselineOrders(t *testing.T) {
	tr := traceOf(t, machine.ClusterA(), 4, func(c *mpi.Comm) {
		for i := 0; i < 3; i++ {
			c.Compute(float64(1e4 * (c.Rank() + 1)))
			if c.Rank() == 0 {
				for s := 1; s < c.Size(); s++ {
					c.RecvN(mpi.AnySource, 0)
				}
			} else {
				c.SendN(0, 0, 128)
			}
			c.Barrier()
		}
	})
	l, err := OrderLamport(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLamportVsPAS2PDiffer(t *testing.T) {
	// With wildcard receives whose arrival order differs across
	// machines, the Lamport model is machine-dependent while PAS2P's
	// stays normalised. At minimum the two orderings must both be
	// valid; the ablation benchmarks quantify the quality difference.
	body := func(c *mpi.Comm) {
		for i := 0; i < 3; i++ {
			if c.Rank() == 0 {
				for s := 1; s < c.Size(); s++ {
					c.RecvN(mpi.AnySource, 0)
				}
				for s := 1; s < c.Size(); s++ {
					c.SendN(s, 1, 64)
				}
			} else {
				c.Compute(float64(1e4 * (5 - c.Rank())))
				c.SendN(0, 0, 64)
				c.RecvN(0, 1)
			}
		}
	}
	tr := traceOf(t, machine.ClusterA(), 4, body)
	lp, err := Order(tr)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := OrderLamport(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := lp.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ll.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteRecvRunsNormalisesOrder(t *testing.T) {
	// Hand-build a trace where two receives were recorded in the
	// "wrong" (arrival) order; after ordering, the run must ascend by
	// LT.
	p0 := []trace.Event{
		{Process: 0, Number: 0, Kind: trace.Send, Involved: 2, CollOp: -1, Peer: 1, Tag: 0, Enter: 10, Exit: 11, RelA: 0, RelB: 0},
		{Process: 0, Number: 1, Kind: trace.Send, Involved: 2, CollOp: -1, Peer: 1, Tag: 1, Enter: 20, Exit: 21, RelA: 0, RelB: 1},
	}
	p1 := []trace.Event{
		// Arrival order flipped: the second send arrives first.
		{Process: 1, Number: 0, Kind: trace.Recv, Involved: 2, CollOp: -1, Peer: 0, Tag: 1, Enter: 5, Exit: 30, RelA: 0, RelB: 1},
		{Process: 1, Number: 1, Kind: trace.Recv, Involved: 2, CollOp: -1, Peer: 0, Tag: 0, Enter: 31, Exit: 40, RelA: 0, RelB: 0},
	}
	tr, err := trace.NewTrace("perm", 2, [][]trace.Event{p0, p1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Order(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	per := l.Trace.PerProcess()
	// After permutation, proc 1's receives must be ordered by LT:
	// first the one matching send seq 0 (LT 1), then seq 1.
	if per[1][0].RelB != 0 || per[1][1].RelB != 1 {
		t.Errorf("recv run not normalised: RelB order %d,%d", per[1][0].RelB, per[1][1].RelB)
	}
	if per[1][0].LT >= per[1][1].LT {
		t.Errorf("recv LTs not ascending: %d,%d", per[1][0].LT, per[1][1].LT)
	}
}

// chainTrace hand-builds a depth-n send→recv dependency chain: proc
// n-1 sends first; every proc below it must receive from the proc
// above before sending downward, so resolution cascades one link per
// queue pass and the assigner revisits pending receives O(n²) times
// while legal progress is always one pass away.
func chainTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	per := make([][]trace.Event, n)
	base := func(p int) vtime.Time { return vtime.Time(10 * (n - p)) }
	for p := 0; p < n; p++ {
		var evs []trace.Event
		if p < n-1 {
			evs = append(evs, trace.Event{
				Process: int32(p), Number: 0, Kind: trace.Recv, Involved: 2, CollOp: -1,
				Peer: int32(p + 1), Tag: 0, Enter: base(p), Exit: base(p) + 5,
				RelA: int64(p + 1), RelB: 0,
			})
		}
		if p > 0 {
			evs = append(evs, trace.Event{
				Process: int32(p), Number: int64(len(evs)), Kind: trace.Send, Involved: 2, CollOp: -1,
				Peer: int32(p - 1), Tag: 0, Enter: base(p) + 6, Exit: base(p) + 7,
				RelA: int64(p), RelB: 0,
			})
		}
		per[p] = evs
	}
	tr, err := trace.NewTrace("chain", n, per, vtime.Duration(20*n))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestOrderDeepRecvChain is the stall-detector regression: a deep
// receive-dependency chain shrinks and refills the assignment queue
// for many passes while progress is always still possible, so the
// detector must count full no-progress passes, not raw spins, before
// declaring the relations inconsistent.
func TestOrderDeepRecvChain(t *testing.T) {
	for _, depth := range []int{3, 16, 64, 256} {
		tr := chainTrace(t, depth)
		l, err := Order(tr)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		// The chain forces strictly increasing LTs down the cascade:
		// proc 0's receive resolves last, at tick >= depth-1.
		per := l.Trace.PerProcess()
		if got := per[0][0].LT; got < int64(depth-1) {
			t.Errorf("depth %d: proc 0 recv at tick %d, want >= %d", depth, got, depth-1)
		}
	}
}

// TestOrderDetectsGenuineStall: a receive cycle (each proc's send is
// behind a receive of the other's send) must be reported as an error,
// not loop forever — including when healthy processes keep the queue
// busy for a while first.
func TestOrderDetectsGenuineStall(t *testing.T) {
	cycle := func(p, q int32) [][]trace.Event {
		mk := func(me, peer int32) []trace.Event {
			return []trace.Event{
				{Process: me, Number: 0, Kind: trace.Recv, Involved: 2, CollOp: -1,
					Peer: peer, Tag: 0, Enter: 0, Exit: 5, RelA: int64(peer), RelB: 0},
				{Process: me, Number: 1, Kind: trace.Send, Involved: 2, CollOp: -1,
					Peer: peer, Tag: 0, Enter: 6, Exit: 7, RelA: int64(me), RelB: 0},
			}
		}
		return [][]trace.Event{mk(p, q), mk(q, p)}
	}

	t.Run("bare", func(t *testing.T) {
		per := cycle(0, 1)
		tr, err := trace.NewTrace("cycle", 2, per, 100)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Order(tr); err == nil {
			t.Fatal("cyclic receive dependency should fail ordering")
		}
	})

	t.Run("with healthy procs", func(t *testing.T) {
		per := cycle(0, 1)
		// Procs 2 and 3 exchange happily; the stall must still be
		// detected once only the cycle remains pending.
		var p2, p3 []trace.Event
		for i := 0; i < 20; i++ {
			p2 = append(p2, trace.Event{Process: 2, Number: int64(i), Kind: trace.Send, Involved: 2, CollOp: -1,
				Peer: 3, Tag: 0, Enter: vtime.Time(10 * i), Exit: vtime.Time(10*i + 1), RelA: 2, RelB: int64(i)})
			p3 = append(p3, trace.Event{Process: 3, Number: int64(i), Kind: trace.Recv, Involved: 2, CollOp: -1,
				Peer: 2, Tag: 0, Enter: vtime.Time(10 * i), Exit: vtime.Time(10*i + 2), RelA: 2, RelB: int64(i)})
		}
		tr, err := trace.NewTrace("cycle+healthy", 4, append(per, p2, p3), 400)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Order(tr); err == nil {
			t.Fatal("cyclic receive dependency should fail ordering despite healthy procs")
		}
	})
}

func TestOrderLargeRing(t *testing.T) {
	tr := traceOf(t, machine.ClusterC(), 32, func(c *mpi.Comm) {
		n := c.Size()
		for i := 0; i < 10; i++ {
			c.Compute(1e4)
			c.SendrecvN((c.Rank()+1)%n, 0, 1024, (c.Rank()+n-1)%n, 0)
		}
		c.Barrier()
	})
	l, err := Order(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Tick count must be far below event count thanks to alignment.
	if l.NumTicks() >= len(l.Trace.Events)/8 {
		t.Errorf("ticks = %d for %d events; alignment looks broken", l.NumTicks(), len(l.Trace.Events))
	}
}
