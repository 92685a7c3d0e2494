package logical

import (
	"fmt"
	"math/rand"
	"testing"

	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/trace"
)

// fuzzBody expands a seed into a random but deadlock-free communication
// program over the kinds the model supports (ring and pairwise
// exchanges, collectives, master gather).
func fuzzBody(seed int64, segsN int) func(c *mpi.Comm) {
	rng := rand.New(rand.NewSource(seed))
	type segment struct{ kind, repeats, bytes, tag int }
	segs := make([]segment, segsN)
	for i := range segs {
		segs[i] = segment{
			kind:    rng.Intn(5),
			repeats: 1 + rng.Intn(4),
			bytes:   64 << rng.Intn(6),
			tag:     i + 1,
		}
	}
	return func(c *mpi.Comm) {
		n, me := c.Size(), c.Rank()
		for _, s := range segs {
			for r := 0; r < s.repeats; r++ {
				c.Compute(1e4)
				switch s.kind {
				case 0:
					c.SendrecvN((me+1)%n, s.tag, s.bytes, (me+n-1)%n, s.tag)
				case 1:
					if peer := me ^ 1; peer < n {
						c.SendrecvN(peer, s.tag, s.bytes, peer, s.tag)
					}
				case 2:
					c.Allreduce([]float64{float64(me)}, mpi.Sum)
				case 3:
					if me == 0 {
						for src := 1; src < n; src++ {
							c.RecvN(src, s.tag)
						}
					} else {
						c.SendN(0, s.tag, s.bytes)
					}
				default:
					c.Barrier()
				}
			}
		}
	}
}

// FuzzLogicalOrder checks the core invariants of the PAS2P logical
// order on randomly generated programs: Order validates, never mutates
// its input, assigns at most one event per (process, tick), places
// every receive strictly after its matching send, and — the defining
// machine-independence property — produces the same LT assignment on
// two different clusters.
func FuzzLogicalOrder(f *testing.F) {
	f.Add(int64(1), 2, 3)
	f.Add(int64(7), 4, 5)
	f.Add(int64(42), 8, 4)
	f.Add(int64(9), 3, 6)
	f.Fuzz(func(t *testing.T, seed int64, procs, segs int) {
		if procs < 2 || procs > 8 || segs < 1 || segs > 6 {
			t.Skip("out of modelled range")
		}
		run := func(cl *machine.Cluster) *Logical {
			d, err := machine.NewDeployment(cl, procs, machine.MapBlock)
			if err != nil {
				t.Fatal(err)
			}
			res, err := mpi.Run(mpi.App{
				Name:  fmt.Sprintf("fuzz-%d", seed),
				Procs: procs,
				Body:  fuzzBody(seed, segs),
			}, mpi.RunConfig{Deployment: d, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Recording.Trace()
			l, err := Order(tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Validate(); err != nil {
				t.Fatal(err)
			}
			for i := range tr.Events {
				if tr.Events[i].LT != trace.NoLT {
					t.Fatal("Order mutated its input trace")
				}
			}
			return l
		}
		l := run(machine.ClusterA())

		// One event per process per tick, and EventAt agrees.
		for tk := range l.Ticks {
			seen := map[int32]bool{}
			for _, s := range l.Ticks[tk] {
				if seen[s.Proc] {
					t.Fatalf("tick %d assigns process %d twice", tk, s.Proc)
				}
				seen[s.Proc] = true
				if got := l.EventAt(tk, s.Proc); got != s.Event {
					t.Fatalf("EventAt(%d,%d) = %d, want %d", tk, s.Proc, got, s.Event)
				}
			}
		}

		// Receives happen strictly after their matching send.
		sends := map[[2]int64]int64{}
		for i := range l.Trace.Events {
			e := &l.Trace.Events[i]
			if e.Kind == trace.Send {
				sends[[2]int64{e.RelA, e.RelB}] = e.LT
			}
		}
		for i := range l.Trace.Events {
			e := &l.Trace.Events[i]
			if e.Kind != trace.Recv {
				continue
			}
			slt, ok := sends[[2]int64{e.RelA, e.RelB}]
			if !ok {
				t.Fatalf("recv %d has no matching send", i)
			}
			if e.LT <= slt {
				t.Fatalf("recv LT %d not after send LT %d", e.LT, slt)
			}
		}

		// Machine independence: same LTs on a different cluster.
		l2 := run(machine.ClusterB())
		if len(l.Trace.Events) != len(l2.Trace.Events) {
			t.Fatalf("event counts differ across clusters: %d vs %d",
				len(l.Trace.Events), len(l2.Trace.Events))
		}
		for i := range l.Trace.Events {
			if l.Trace.Events[i].LT != l2.Trace.Events[i].LT {
				t.Fatalf("event %d: LT %d on A, %d on B — logical order is machine-dependent",
					i, l.Trace.Events[i].LT, l2.Trace.Events[i].LT)
			}
		}
	})
}
