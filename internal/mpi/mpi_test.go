package mpi

import (
	"math"
	"strings"
	"testing"

	"pas2p/internal/machine"
	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

func deploy(t testing.TB, ranks int) *machine.Deployment {
	t.Helper()
	d, err := machine.NewDeployment(machine.ClusterA(), ranks, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func runApp(t testing.TB, procs int, body func(c *Comm), cfg RunConfig) *RunResult {
	t.Helper()
	cfg.Deployment = deploy(t, procs)
	res, err := Run(App{Name: "test", Procs: procs, Body: body}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	app := App{Name: "x", Procs: 2, Body: func(c *Comm) {}}
	if _, err := Run(app, RunConfig{}); err == nil {
		t.Error("nil deployment should fail")
	}
	if _, err := Run(app, RunConfig{Deployment: deploy(t, 3)}); err == nil {
		t.Error("rank count mismatch should fail")
	}
	if _, err := Run(App{Name: "x", Procs: 0}, RunConfig{Deployment: deploy(t, 1)}); err == nil {
		t.Error("zero procs should fail")
	}
}

func TestSendRecvData(t *testing.T) {
	runApp(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2, 3})
		} else {
			data, src := c.Recv(0, 0)
			if src != 0 || len(data) != 3 || data[2] != 3 {
				t.Errorf("recv got %v from %d", data, src)
			}
		}
	}, RunConfig{})
}

func TestSendCopiesData(t *testing.T) {
	// Mutating the buffer after Send must not corrupt the message.
	runApp(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1
			c.Send(1, 1, buf)
		} else {
			d1, _ := c.Recv(0, 0)
			if d1[0] != 42 {
				t.Errorf("mutation leaked into message: %v", d1)
			}
			c.Recv(0, 1)
		}
	}, RunConfig{})
}

func TestComputeAdvancesClock(t *testing.T) {
	res := runApp(t, 1, func(c *Comm) {
		c.Compute(1e6)
	}, RunConfig{})
	if res.Elapsed <= 0 {
		t.Error("compute must take time")
	}
}

func TestSendrecvExchange(t *testing.T) {
	runApp(t, 4, func(c *Comm) {
		n := c.Size()
		right := (c.Rank() + 1) % n
		left := (c.Rank() + n - 1) % n
		got := c.Sendrecv(right, 0, []float64{float64(c.Rank())}, left, 0)
		if int(got[0]) != left {
			t.Errorf("rank %d received %v, want %d", c.Rank(), got, left)
		}
	}, RunConfig{})
}

func TestCollectivesData(t *testing.T) {
	runApp(t, 4, func(c *Comm) {
		me := float64(c.Rank())
		sum := c.Allreduce([]float64{me}, Sum)
		if sum[0] != 6 {
			t.Errorf("allreduce sum = %v", sum)
		}
		mx := c.Allreduce([]float64{me}, Max)
		if mx[0] != 3 {
			t.Errorf("allreduce max = %v", mx)
		}
		mn := c.Allreduce([]float64{me + 1}, Min)
		if mn[0] != 1 {
			t.Errorf("allreduce min = %v", mn)
		}
		pr := c.Allreduce([]float64{me + 1}, Prod)
		if pr[0] != 24 {
			t.Errorf("allreduce prod = %v", pr)
		}

		b := c.Bcast(2, []float64{me * 10})
		if b[0] != 20 {
			t.Errorf("bcast = %v, want root 2's 20", b)
		}

		r := c.Reduce(1, []float64{1}, Sum)
		if c.Rank() == 1 {
			if r[0] != 4 {
				t.Errorf("reduce = %v", r)
			}
		} else if r != nil {
			t.Error("reduce must return nil off-root")
		}

		g := c.Gather(0, []float64{me})
		if c.Rank() == 0 {
			for i, v := range g {
				if int(v) != i {
					t.Errorf("gather = %v", g)
					break
				}
			}
		} else if g != nil {
			t.Error("gather must return nil off-root")
		}

		ag := c.Allgather([]float64{me})
		if len(ag) != 4 || ag[3] != 3 {
			t.Errorf("allgather = %v", ag)
		}

		var sc []float64
		if c.Rank() == 3 {
			sc = c.Scatter(3, []float64{0, 10, 20, 30})
		} else {
			sc = c.Scatter(3, nil)
		}
		if len(sc) != 1 || sc[0] != me*10 {
			t.Errorf("scatter = %v, want %v", sc, me*10)
		}
	}, RunConfig{})
}

func TestAlltoallTransposes(t *testing.T) {
	runApp(t, 4, func(c *Comm) {
		n := c.Size()
		send := make([]float64, n)
		for j := range send {
			send[j] = float64(c.Rank()*10 + j)
		}
		got := c.Alltoall(send)
		for i := range got {
			want := float64(i*10 + c.Rank())
			if got[i] != want {
				t.Errorf("rank %d block %d = %v, want %v", c.Rank(), i, got[i], want)
			}
		}
	}, RunConfig{})
}

func TestSplitFormsSubcommunicators(t *testing.T) {
	runApp(t, 6, func(c *Comm) {
		sub := c.Split(c.Rank() % 2)
		if sub.Size() != 3 {
			t.Errorf("split size = %d", sub.Size())
		}
		sum := sub.Allreduce([]float64{float64(c.Rank())}, Sum)
		want := 6.0 // 0+2+4
		if c.Rank()%2 == 1 {
			want = 9.0 // 1+3+5
		}
		if sum[0] != want {
			t.Errorf("rank %d subgroup sum = %v, want %v", c.Rank(), sum, want)
		}
		// Point-to-point within the subcommunicator.
		if sub.Rank() == 0 {
			sub.Send(1, 9, []float64{99})
		} else if sub.Rank() == 1 {
			d, src := sub.Recv(0, 9)
			if d[0] != 99 || src != 0 {
				t.Errorf("sub recv %v from %d", d, src)
			}
		}
	}, RunConfig{})
}

// TestSplitTranslatesSourceRanks checks that a receive reports its
// sender's rank in the receiving communicator, both in a split whose
// members are not the world's leading ranks and in a world-sized
// split, where the translation is the identity.
func TestSplitTranslatesSourceRanks(t *testing.T) {
	runApp(t, 6, func(c *Comm) {
		for _, sub := range []*Comm{c.Split(c.Rank() % 2), c.Split(0)} {
			if sub.Rank() != 0 {
				sub.SendN(0, 5, 8)
				continue
			}
			seen := map[int]bool{}
			for i := 1; i < sub.Size(); i++ {
				_, src := sub.RecvN(AnySource, 5)
				seen[src] = true
			}
			for r := 1; r < sub.Size(); r++ {
				if !seen[r] {
					t.Errorf("world rank %d: split of size %d never saw source %d; got %v",
						c.Rank(), sub.Size(), r, seen)
				}
			}
		}
	}, RunConfig{})
}

func TestSplitNegativeColor(t *testing.T) {
	runApp(t, 3, func(c *Comm) {
		color := c.Rank()
		if c.Rank() == 2 {
			color = -1
		}
		sub := c.Split(color)
		if c.Rank() == 2 {
			if sub != nil {
				t.Error("negative color should yield nil communicator")
			}
			return
		}
		if sub.Size() != 1 {
			t.Errorf("split size = %d, want 1", sub.Size())
		}
	}, RunConfig{})
}

func TestTraceProduced(t *testing.T) {
	res := runApp(t, 2, func(c *Comm) {
		c.Compute(1e5)
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1})
		} else {
			c.Recv(0, 0)
		}
		c.Barrier()
	}, RunConfig{Trace: true})
	tr := res.Recording.Trace()
	if tr == nil {
		t.Fatal("no trace")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Sends != 1 || st.Recvs != 1 || st.Collectives != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Compute time before the first event must be recorded.
	per := tr.PerProcess()
	if per[0][0].ComputeBefore <= 0 {
		t.Error("ComputeBefore missing on first event")
	}
	// Recv must reference its send.
	for _, e := range per[1] {
		if e.Kind == trace.Recv && (e.RelA != 0 || e.RelB != 0) {
			t.Errorf("recv relation = (%d,%d)", e.RelA, e.RelB)
		}
	}
}

func TestInstrumentationOverheadSlowsRun(t *testing.T) {
	body := func(c *Comm) {
		for i := 0; i < 20; i++ {
			c.Compute(1e4)
			if c.Rank() == 0 {
				c.Send(1, 0, []float64{1})
			} else {
				c.Recv(0, 0)
			}
		}
	}
	plain := runApp(t, 2, body, RunConfig{})
	traced := runApp(t, 2, body, RunConfig{Trace: true, EventOverhead: 10 * vtime.Microsecond})
	if traced.Elapsed <= plain.Elapsed {
		t.Errorf("instrumented run %v should exceed plain run %v", traced.Elapsed, plain.Elapsed)
	}
	// Both runs must be deterministic replicas otherwise.
	plain2 := runApp(t, 2, body, RunConfig{})
	if plain2.Elapsed != plain.Elapsed {
		t.Error("plain runs must be deterministic")
	}
}

func TestNonblockingWaitPayloads(t *testing.T) {
	runApp(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			r := c.Irecv(1, 1)
			s := c.Isend(1, 0, []float64{7})
			res := c.Wait(r, s)
			if res[0][0] != 8 {
				t.Errorf("irecv payload = %v", res[0])
			}
			if res[1] != nil {
				t.Error("send slot must be nil")
			}
		} else {
			r := c.Irecv(0, 0)
			s := c.Isend(0, 1, []float64{8})
			res := c.Wait(r, s)
			if res[0][0] != 7 {
				t.Errorf("irecv payload = %v", res[0])
			}
		}
	}, RunConfig{})
}

// TestWaitRepeatedRequest: a request passed twice to Wait fails the
// run with an error naming the waiting rank, not a panic on its peer.
func TestWaitRepeatedRequest(t *testing.T) {
	app := App{Name: "twice", Procs: 2, Body: func(c *Comm) {
		if c.Rank() == 0 {
			r := c.Irecv(1, 0)
			c.Wait(r, r)
		} else {
			c.Compute(1e6)
			c.Send(0, 0, []float64{1})
		}
	}}
	_, err := Run(app, RunConfig{Deployment: deploy(t, 2)})
	if err == nil || !strings.Contains(err.Error(), "rank 0: wait on request 1 more than once") {
		t.Errorf("err = %v", err)
	}
}

func TestTraceMonotoneWithNonblocking(t *testing.T) {
	// Regardless of Wait argument order, recorded events must keep
	// per-process physical-time order.
	res := runApp(t, 2, func(c *Comm) {
		peer := 1 - c.Rank()
		for i := 0; i < 5; i++ {
			s := c.Isend(peer, 0, []float64{1})
			r := c.Irecv(peer, 0)
			c.Wait(s, r) // send first, although recv may start earlier
			c.Compute(1e4)
		}
	}, RunConfig{Trace: true})
	if err := res.Recording.Trace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEventAndSendCounters(t *testing.T) {
	runApp(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1})
			c.SendN(1, 1, 100)
			c.Barrier()
			if c.Sends() != 2 {
				t.Errorf("sends = %d, want 2", c.Sends())
			}
			if c.EventIndex() != 3 {
				t.Errorf("events = %d, want 3", c.EventIndex())
			}
		} else {
			c.Recv(0, 0)
			c.RecvN(0, 1)
			c.Barrier()
			if c.Sends() != 0 {
				t.Errorf("sends = %d, want 0", c.Sends())
			}
			if c.EventIndex() != 3 {
				t.Errorf("events = %d, want 3", c.EventIndex())
			}
		}
	}, RunConfig{})
}

type countingInterceptor struct {
	inited bool
	after  int
	kinds  []trace.Kind
}

func (ci *countingInterceptor) Init(c *Comm) { ci.inited = true }

func (ci *countingInterceptor) After(c *Comm, k trace.Kind, idx int64) {
	ci.after++
	ci.kinds = append(ci.kinds, k)
}

func TestInterceptorSeesEveryOp(t *testing.T) {
	icepts := make([]*countingInterceptor, 2)
	runApp(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1})
		} else {
			c.Recv(0, 0)
		}
		c.Barrier()
		c.Allreduce([]float64{1}, Sum)
	}, RunConfig{NewInterceptor: func(rank int) Interceptor {
		ci := &countingInterceptor{}
		icepts[rank] = ci
		return ci
	}})
	for r, ci := range icepts {
		if !ci.inited {
			t.Errorf("rank %d interceptor never initialised", r)
		}
		if ci.after != 3 {
			t.Errorf("rank %d interceptor saw %d ops, want 3", r, ci.after)
		}
	}
	if icepts[0].kinds[0] != trace.Send || icepts[1].kinds[0] != trace.Recv {
		t.Error("interceptor kinds wrong")
	}
}

func TestModeSwitchThroughComm(t *testing.T) {
	res := runApp(t, 1, func(c *Comm) {
		c.SetMode(0, true)
		c.Compute(1e9)
		c.SetMode(1, false)
		c.Compute(1e6)
	}, RunConfig{})
	// Only the 1e6 flops tail should cost time: ~0.5ms on cluster A,
	// far below the ~0.5s the skipped part would cost.
	if res.Elapsed > vtime.FromSeconds(0.01) {
		t.Errorf("elapsed = %v; free mode did not skip the prefix", res.Elapsed)
	}
}

func TestDifferentClustersDifferentTimes(t *testing.T) {
	// A communication-dominated cross-node exchange: InfiniBand
	// (cluster C) must beat Gigabit Ethernet (cluster A) even though
	// C's fuller nodes contend more on memory.
	body := func(c *Comm) {
		for i := 0; i < 10; i++ {
			c.Compute(1e5)
			peer := (c.Rank() + 32) % 64
			c.Sendrecv(peer, 0, make([]float64, 32768), peer, 0)
		}
	}
	times := map[string]vtime.Duration{}
	for _, cl := range []*machine.Cluster{machine.ClusterA(), machine.ClusterC()} {
		d, err := machine.NewDeployment(cl, 64, machine.MapBlock)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(App{Name: "xc", Procs: 64, Body: body}, RunConfig{Deployment: d})
		if err != nil {
			t.Fatal(err)
		}
		times[cl.Name] = res.Elapsed
	}
	if times["Cluster C"] >= times["Cluster A"] {
		t.Errorf("cluster C (IB, faster mem) = %v should beat cluster A (GigE) = %v",
			times["Cluster C"], times["Cluster A"])
	}
}

func TestReduceNaNSafety(t *testing.T) {
	// NaNs flow through reductions without breaking determinism.
	runApp(t, 2, func(c *Comm) {
		v := []float64{1}
		if c.Rank() == 0 {
			v[0] = math.NaN()
		}
		got := c.Allreduce(v, Sum)
		if !math.IsNaN(got[0]) {
			t.Errorf("NaN should propagate, got %v", got)
		}
	}, RunConfig{})
}

func TestScan(t *testing.T) {
	runApp(t, 4, func(c *Comm) {
		got := c.Scan([]float64{float64(c.Rank() + 1)}, Sum)
		// Inclusive prefix of 1,2,3,4.
		want := []float64{1, 3, 6, 10}[c.Rank()]
		if got[0] != want {
			t.Errorf("rank %d scan = %v, want %v", c.Rank(), got[0], want)
		}
	}, RunConfig{})
}

func TestReduceScatter(t *testing.T) {
	runApp(t, 4, func(c *Comm) {
		n := c.Size()
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = float64(i)
		}
		got := c.ReduceScatter(buf, Sum)
		// Every member contributed [0,1,2,3]; block i of the sum is 4*i.
		if len(got) != 1 || got[0] != float64(4*c.Rank()) {
			t.Errorf("rank %d reduce_scatter = %v", c.Rank(), got)
		}
	}, RunConfig{})
}

func TestAlltoallv(t *testing.T) {
	runApp(t, 3, func(c *Comm) {
		me := c.Rank()
		// Member i sends i+1 copies of its rank to everyone.
		counts := []int{me + 1, me + 1, me + 1}
		send := make([]float64, 3*(me+1))
		for i := range send {
			send[i] = float64(me)
		}
		got := c.Alltoallv(send, counts)
		// Receives 1 copy of 0, 2 copies of 1, 3 copies of 2.
		want := []float64{0, 1, 1, 2, 2, 2}
		if len(got) != len(want) {
			t.Fatalf("rank %d alltoallv len = %d, want %d", me, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d alltoallv = %v", me, got)
			}
		}
	}, RunConfig{})
}

func TestAlltoallvValidation(t *testing.T) {
	// The rank panics inside the engine, which surfaces as a run error.
	_, err := Run(App{Name: "badv", Procs: 2, Body: func(c *Comm) {
		c.Alltoallv([]float64{1}, []int{5, 5})
	}}, RunConfig{Deployment: deploy(t, 2)})
	if err == nil {
		t.Error("mismatched counts should fail the run")
	}
}
