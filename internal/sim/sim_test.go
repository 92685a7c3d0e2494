package sim

import (
	"fmt"
	"strings"
	"testing"

	"pas2p/internal/machine"
	"pas2p/internal/network"
	"pas2p/internal/vtime"
)

// testDeployment returns a small deployment on the cluster A model.
func testDeployment(t testing.TB, ranks int) *machine.Deployment {
	t.Helper()
	d, err := machine.NewDeployment(machine.ClusterA(), ranks, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func run(t testing.TB, ranks int, body func(p *Proc)) Result {
	t.Helper()
	res, err := Run(Config{Deployment: testDeployment(t, ranks), Body: body, Name: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSingleRankCompute(t *testing.T) {
	res := run(t, 1, func(p *Proc) {
		p.Advance(vtime.Millisecond)
		p.Advance(2 * vtime.Millisecond)
	})
	if res.Finish != vtime.Time(3*vtime.Millisecond) {
		t.Errorf("finish = %v, want 3ms", res.Finish)
	}
}

func TestPingPong(t *testing.T) {
	var recvInfo PtPInfo
	res := run(t, 2, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 7, 1024, "hello")
			info := p.Recv(1, 8)
			if info.Payload.(string) != "world" {
				t.Errorf("payload = %v", info.Payload)
			}
		case 1:
			info := p.Recv(0, 7)
			recvInfo = info
			if info.Payload.(string) != "hello" {
				t.Errorf("payload = %v", info.Payload)
			}
			p.Send(0, 8, 1024, "world")
		}
	})
	if recvInfo.Src != 0 || recvInfo.Tag != 7 || recvInfo.Size != 1024 {
		t.Errorf("recv info = %+v", recvInfo)
	}
	if recvInfo.End <= recvInfo.Start {
		t.Error("recv must take positive time")
	}
	if res.Messages != 2 || res.Bytes != 2048 {
		t.Errorf("stats = %d msgs %d bytes", res.Messages, res.Bytes)
	}
	if res.Finish <= 0 {
		t.Error("finish must be positive")
	}
}

func TestMessageLatencyIntraVsInter(t *testing.T) {
	// Ranks 0,1 share a node on cluster A (2 cores/node); ranks 0,2 do
	// not. The same exchange must take longer across the interconnect.
	timing := func(dst int) vtime.Time {
		var end vtime.Time
		run(t, 4, func(p *Proc) {
			switch p.Rank() {
			case 0:
				p.Send(dst, 0, 4096, nil)
			case dst:
				end = p.Recv(0, 0).End
			}
		})
		return end
	}
	if intra, inter := timing(1), timing(2); intra >= inter {
		t.Errorf("intra-node %v should beat inter-node %v", intra, inter)
	}
}

func TestNonOvertakingSameTag(t *testing.T) {
	// Messages with the same (src, tag) must be received in send order.
	run(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 5; i++ {
				p.Send(1, 3, 64, i)
			}
		} else {
			for i := 0; i < 5; i++ {
				got := p.Recv(0, 3).Payload.(int)
				if got != i {
					t.Errorf("message %d arrived out of order: %d", i, got)
				}
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	// A receive for tag 2 must skip the earlier tag-1 message.
	run(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, 64, "one")
			p.Send(1, 2, 64, "two")
		} else {
			if got := p.Recv(0, 2).Payload.(string); got != "two" {
				t.Errorf("tag 2 recv got %q", got)
			}
			if got := p.Recv(0, 1).Payload.(string); got != "one" {
				t.Errorf("tag 1 recv got %q", got)
			}
		}
	})
}

func TestAnyTagReceivesInOrder(t *testing.T) {
	run(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 5, 64, "a")
			p.Send(1, 9, 64, "b")
		} else {
			first := p.Recv(0, AnyTag)
			second := p.Recv(0, AnyTag)
			if first.Tag != 5 || second.Tag != 9 {
				t.Errorf("tags %d,%d; want 5,9", first.Tag, second.Tag)
			}
		}
	})
}

func TestAnySourceMasterWorker(t *testing.T) {
	// A master consumes results from workers via wildcard receives.
	const workers = 7
	counts := make([]int, workers+1)
	run(t, workers+1, func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < workers; i++ {
				info := p.Recv(AnySource, 1)
				counts[info.Src]++
			}
		} else {
			p.Advance(vtime.Duration(p.Rank()) * vtime.Microsecond)
			p.Send(0, 1, 128, p.Rank())
		}
	})
	for w := 1; w <= workers; w++ {
		if counts[w] != 1 {
			t.Errorf("worker %d delivered %d messages", w, counts[w])
		}
	}
}

func TestAnySourcePrefersEarliestArrival(t *testing.T) {
	// Worker 2 computes less and therefore sends earlier; the wildcard
	// receive must pick it first.
	var first int
	run(t, 3, func(p *Proc) {
		switch p.Rank() {
		case 0:
			first = p.Recv(AnySource, 0).Src
			p.Recv(AnySource, 0)
		case 1:
			p.Advance(10 * vtime.Millisecond)
			p.Send(0, 0, 64, nil)
		case 2:
			p.Advance(1 * vtime.Millisecond)
			p.Send(0, 0, 64, nil)
		}
	})
	if first != 2 {
		t.Errorf("first wildcard match = rank %d, want 2", first)
	}
}

func TestRendezvousBlocksUntilRecv(t *testing.T) {
	// A message above the eager limit cannot complete before the
	// receiver posts; the sender's completion must reflect the delay.
	big := machine.ClusterA().Interconnect.EagerLimit + 1
	var senderEnd vtime.Time
	run(t, 4, func(p *Proc) {
		switch p.Rank() {
		case 0:
			info := p.Send(2, 0, big, nil)
			senderEnd = info.End
		case 2:
			p.Advance(50 * vtime.Millisecond)
			p.Recv(0, 0)
		}
	})
	if senderEnd < vtime.Time(50*vtime.Millisecond) {
		t.Errorf("rendezvous sender finished at %v, before the receive was posted", senderEnd)
	}
}

func TestEagerSenderDoesNotBlock(t *testing.T) {
	var senderEnd vtime.Time
	run(t, 4, func(p *Proc) {
		switch p.Rank() {
		case 0:
			senderEnd = p.Send(2, 0, 1024, nil).End
		case 2:
			p.Advance(time50())
			p.Recv(0, 0)
		}
	})
	if senderEnd >= vtime.Time(time50()) {
		t.Errorf("eager sender finished at %v, should not wait for receiver", senderEnd)
	}
}

func time50() vtime.Duration { return 50 * vtime.Millisecond }

func TestIsendIrecvWaitall(t *testing.T) {
	// Symmetric neighbour exchange that would deadlock with blocking
	// rendezvous sends.
	big := machine.ClusterA().Interconnect.EagerLimit * 2
	run(t, 4, func(p *Proc) {
		peer := p.Rank() ^ 2 // 0<->2, 1<->3: cross-node pairs
		r := p.Irecv(peer, 0)
		s := p.Isend(peer, 0, big, p.Rank())
		infos := p.Wait(r, s)
		if got := infos[0].Payload.(int); got != peer {
			t.Errorf("rank %d received %d, want %d", p.Rank(), got, peer)
		}
	})
}

func TestWaitEmptyAndUnknown(t *testing.T) {
	run(t, 1, func(p *Proc) {
		if got := p.Wait(); got != nil {
			t.Errorf("empty wait returned %v", got)
		}
	})
	_, err := Run(Config{Deployment: testDeployment(t, 1), Name: "bad-wait",
		Body: func(p *Proc) { p.Wait(42) }})
	if err == nil || !strings.Contains(err.Error(), "unknown request") {
		t.Errorf("wait on unknown request: err = %v", err)
	}
}

// TestWaitRepeatedRequest: passing one request id twice to Wait is an
// engine error that names the waiting rank and the id, both for a send
// that completed inline and for a receive whose message arrives while
// the rank would be parked.
func TestWaitRepeatedRequest(t *testing.T) {
	cases := map[string]func(p *Proc){
		"isend": func(p *Proc) {
			if p.Rank() == 0 {
				r := p.Isend(1, 0, 8, nil)
				p.Wait(r, r)
			} else {
				p.Recv(0, 0)
			}
		},
		"irecv": func(p *Proc) {
			if p.Rank() == 0 {
				r := p.Irecv(1, 0)
				p.Wait(r, r)
			} else {
				p.Advance(vtime.Millisecond)
				p.Send(0, 0, 8, nil)
			}
		},
	}
	for name, body := range cases {
		_, err := Run(Config{Deployment: testDeployment(t, 2), Name: "twice", Body: body})
		if err == nil || !strings.Contains(err.Error(), "rank 0: wait on request 1 more than once") {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func TestCollectiveBarrierSynchronises(t *testing.T) {
	ends := make([]vtime.Time, 4)
	run(t, 4, func(p *Proc) {
		members := []int{0, 1, 2, 3}
		p.Advance(vtime.Duration(p.Rank()+1) * vtime.Millisecond)
		info := p.Collective(network.Barrier, 0, members, 0, 0, nil)
		ends[p.Rank()] = info.End
	})
	for r := 1; r < 4; r++ {
		if ends[r] != ends[0] {
			t.Errorf("barrier end differs: rank %d at %v vs %v", r, ends[r], ends[0])
		}
	}
	if ends[0] < vtime.Time(4*vtime.Millisecond) {
		t.Errorf("barrier completed at %v, before slowest arrival", ends[0])
	}
}

func TestCollectivePayloadGather(t *testing.T) {
	run(t, 4, func(p *Proc) {
		members := []int{0, 1, 2, 3}
		info := p.Collective(network.Allgather, 0, members, 0, 8, p.Rank()*10)
		for i, pl := range info.Payloads {
			if pl.(int) != i*10 {
				t.Errorf("payload[%d] = %v, want %d", i, pl, i*10)
			}
		}
	})
}

func TestCollectiveSubsetMembers(t *testing.T) {
	// Only even ranks join; odd ranks keep working independently.
	run(t, 4, func(p *Proc) {
		if p.Rank()%2 == 0 {
			p.Collective(network.Allreduce, 3, []int{0, 2}, 0, 64, nil)
		} else {
			p.Advance(vtime.Microsecond)
		}
	})
}

func TestCollectiveMismatchFails(t *testing.T) {
	_, err := Run(Config{Deployment: testDeployment(t, 2), Name: "mismatch",
		Body: func(p *Proc) {
			members := []int{0, 1}
			if p.Rank() == 0 {
				p.Collective(network.Bcast, 0, members, 0, 8, nil)
			} else {
				p.Collective(network.Allreduce, 0, members, 0, 8, nil)
			}
		}})
	if err == nil || !strings.Contains(err.Error(), "collective mismatch") {
		t.Errorf("err = %v, want collective mismatch", err)
	}
}

func TestCollectiveNonMemberFails(t *testing.T) {
	_, err := Run(Config{Deployment: testDeployment(t, 2), Name: "nonmember",
		Body: func(p *Proc) {
			if p.Rank() == 0 {
				p.Collective(network.Bcast, 0, []int{1}, 1, 8, nil)
			}
		}})
	if err == nil {
		t.Error("expected error for non-member collective call")
	}
}

func TestDeadlockDetection(t *testing.T) {
	_, err := Run(Config{Deployment: testDeployment(t, 2), Name: "dl",
		Body: func(p *Proc) {
			p.Recv(1-p.Rank(), 0) // both wait, nobody sends
		}})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "rank 0") || !strings.Contains(err.Error(), "rank 1") {
		t.Errorf("deadlock report should list both ranks: %v", err)
	}
}

func TestRendezvousMutualSendDeadlocks(t *testing.T) {
	big := machine.ClusterA().Interconnect.EagerLimit + 1
	_, err := Run(Config{Deployment: testDeployment(t, 4), Name: "rdvdl",
		Body: func(p *Proc) {
			if p.Rank() >= 2 {
				return
			}
			peer := 1 - p.Rank()
			_ = peer
			// Cross-node pair 0<->2 would be needed for rendezvous;
			// use ranks 0 and 1 via interconnect? They share a node,
			// so force a big intra-node message too.
			bigIntra := machine.ClusterA().IntraNode.EagerLimit + 1
			if bigIntra < big {
				bigIntra = big
			}
			p.Send(1-p.Rank(), 0, bigIntra, nil)
			p.Recv(1-p.Rank(), 0)
		}})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("mutual rendezvous sends should deadlock, got %v", err)
	}
}

func TestPanicPropagates(t *testing.T) {
	_, err := Run(Config{Deployment: testDeployment(t, 2), Name: "boom",
		Body: func(p *Proc) {
			if p.Rank() == 1 {
				panic("kaboom")
			}
			p.Recv(1, 0)
		}})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("err = %v, want panic propagation", err)
	}
}

func TestInvalidPeerFails(t *testing.T) {
	for _, body := range []func(p *Proc){
		func(p *Proc) { p.Send(99, 0, 0, nil) },
		func(p *Proc) { p.Recv(99, 0) },
		func(p *Proc) { p.Send(0, 0, -1, nil) },
	} {
		if _, err := Run(Config{Deployment: testDeployment(t, 1), Name: "bad", Body: body}); err == nil {
			t.Error("expected validation error")
		}
	}
}

func TestNilConfig(t *testing.T) {
	if _, err := Run(Config{Name: "nil"}); err == nil {
		t.Error("nil deployment should fail")
	}
	if _, err := Run(Config{Deployment: testDeployment(t, 1), Name: "nil"}); err == nil {
		t.Error("nil body should fail")
	}
}

func TestDeterminism(t *testing.T) {
	// An irregular program must produce bit-identical results on
	// repeated runs.
	body := func(p *Proc) {
		n := p.Size()
		me := p.Rank()
		for iter := 0; iter < 20; iter++ {
			p.Advance(vtime.Duration((me*7+iter*13)%50+1) * vtime.Microsecond)
			if me == 0 {
				for i := 1; i < n; i++ {
					p.Recv(AnySource, 0)
				}
				for i := 1; i < n; i++ {
					p.Send(i, 1, 256, iter)
				}
			} else {
				p.Send(0, 0, 256, me)
				p.Recv(0, 1)
			}
			p.Collective(network.Barrier, 0, members(n), 0, 0, nil)
		}
	}
	var first Result
	for i := 0; i < 3; i++ {
		res := run(t, 6, body)
		if i == 0 {
			first = res
			continue
		}
		if res.Finish != first.Finish || res.Messages != first.Messages || res.Bytes != first.Bytes {
			t.Fatalf("run %d differs: %+v vs %+v", i, res, first)
		}
		for r := range res.RankFinish {
			if res.RankFinish[r] != first.RankFinish[r] {
				t.Fatalf("rank %d finish differs", r)
			}
		}
	}
}

func members(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func TestClocksMonotone(t *testing.T) {
	run(t, 3, func(p *Proc) {
		last := p.Now()
		check := func() {
			if now := p.Now(); now < last {
				t.Errorf("rank %d clock went backwards: %v -> %v", p.Rank(), last, now)
			} else {
				last = now
			}
		}
		for i := 0; i < 10; i++ {
			p.Advance(vtime.Microsecond)
			check()
			if p.Rank() == 0 {
				p.Send(1, 0, 64, nil)
			} else if p.Rank() == 1 {
				p.Recv(0, 0)
			}
			check()
			p.Collective(network.Barrier, 0, []int{0, 1, 2}, 0, 0, nil)
			check()
		}
	})
}

func TestFreeModeCostsNothing(t *testing.T) {
	baseline := run(t, 2, exchangeBody(Mode{ComputeScale: 1}))
	free := run(t, 2, exchangeBody(Mode{ComputeScale: 0, CommFree: true}))
	if free.Finish != 0 {
		t.Errorf("free-mode run took %v, want 0", free.Finish)
	}
	if baseline.Finish == 0 {
		t.Error("baseline must take time")
	}
	if free.Messages != baseline.Messages {
		t.Error("free mode must still deliver every message")
	}
}

func exchangeBody(m Mode) func(p *Proc) {
	return func(p *Proc) {
		p.SetMode(m)
		for i := 0; i < 5; i++ {
			p.Advance(vtime.Millisecond)
			if p.Rank() == 0 {
				p.Send(1, 0, 1024, i)
				p.Recv(1, 1)
			} else {
				if got := p.Recv(0, 0).Payload.(int); got != i {
					panic(fmt.Sprintf("free mode corrupted data: %d != %d", got, i))
				}
				p.Send(0, 1, 1024, i)
			}
			p.Collective(network.Barrier, 0, []int{0, 1}, 0, 0, nil)
		}
	}
}

func TestColdModeSlowsCompute(t *testing.T) {
	norm := run(t, 1, func(p *Proc) { p.Advance(vtime.Millisecond) })
	cold := run(t, 1, func(p *Proc) {
		p.SetMode(Mode{ComputeScale: 2.5})
		p.Advance(vtime.Millisecond)
	})
	if cold.Finish != vtime.Time(2500*vtime.Microsecond) {
		t.Errorf("cold finish = %v, want 2.5ms", cold.Finish)
	}
	if norm.Finish != vtime.Time(vtime.Millisecond) {
		t.Errorf("normal finish = %v", norm.Finish)
	}
}

func TestModeTransitionMidRun(t *testing.T) {
	// Skip a prefix in free mode, then measure a phase normally: the
	// finish time must reflect only the measured part.
	res := run(t, 2, func(p *Proc) {
		p.SetMode(Mode{ComputeScale: 0, CommFree: true})
		for i := 0; i < 10; i++ {
			p.Advance(vtime.Millisecond)
			if p.Rank() == 0 {
				p.Send(1, 0, 128, nil)
			} else {
				p.Recv(0, 0)
			}
		}
		p.SetMode(NormalMode)
		p.Advance(vtime.Millisecond)
	})
	if res.Finish < vtime.Time(vtime.Millisecond) ||
		res.Finish > vtime.Time(2*vtime.Millisecond) {
		t.Errorf("finish = %v, want ~1ms (only the measured tail)", res.Finish)
	}
}

func TestSendSeqIdentifiesMessages(t *testing.T) {
	// The receiver sees per-sender sequence numbers 0,1,2,... which the
	// trace layer uses as the send<->recv relation.
	run(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 3; i++ {
				info := p.Send(1, 0, 64, nil)
				if info.SendSeq != int64(i) {
					t.Errorf("send %d has seq %d", i, info.SendSeq)
				}
			}
		} else {
			for i := 0; i < 3; i++ {
				info := p.Recv(0, 0)
				if info.SendSeq != int64(i) {
					t.Errorf("recv %d has seq %d", i, info.SendSeq)
				}
			}
		}
	})
}

func TestOversubscriptionSlowsFinish(t *testing.T) {
	body := func(p *Proc) {
		p.Advance(10 * vtime.Millisecond)
	}
	d128, _ := machine.NewDeployment(machine.ClusterA(), 128, machine.MapBlock)
	d256, _ := machine.NewDeployment(machine.ClusterA(), 256, machine.MapBlock)
	r128, err := Run(Config{Deployment: d128, Body: func(p *Proc) {
		p.Advance(machine.ClusterA().IntraNode.Latency) // noop warm
		body(p)
	}, Name: "128"})
	if err != nil {
		t.Fatal(err)
	}
	r256, err := Run(Config{Deployment: d256, Body: body, Name: "256"})
	if err != nil {
		t.Fatal(err)
	}
	// Advance passes raw durations, so identical finishes here; the
	// compute scaling happens in the mpi layer via ComputeTime. This
	// test documents that Advance is unscaled by deployment.
	if r256.Finish != vtime.Time(10*vtime.Millisecond) {
		t.Errorf("advance should be raw: %v", r256.Finish)
	}
	_ = r128
}

func TestSelfSendEager(t *testing.T) {
	run(t, 1, func(p *Proc) {
		p.Send(0, 0, 64, "self")
		if got := p.Recv(0, 0).Payload.(string); got != "self" {
			t.Errorf("self message = %q", got)
		}
	})
}

func TestManyRanksStress(t *testing.T) {
	// A ring exchange over 64 ranks, several iterations.
	const n = 64
	res := run(t, n, func(p *Proc) {
		me := p.Rank()
		right := (me + 1) % n
		left := (me + n - 1) % n
		for i := 0; i < 10; i++ {
			p.Advance(10 * vtime.Microsecond)
			r := p.Irecv(left, 0)
			s := p.Isend(right, 0, 512, me)
			p.Wait(r, s)
			p.Collective(network.Allreduce, 0, members(n), 0, 8, float64(me))
		}
	})
	if res.Messages != n*10 {
		t.Errorf("messages = %d, want %d", res.Messages, n*10)
	}
	if res.Collectives != 10 {
		t.Errorf("collectives = %d, want 10", res.Collectives)
	}
}

func TestNICContentionSerialisesFanIn(t *testing.T) {
	// 8 senders on distinct nodes blast one receiver simultaneously;
	// with NIC contention the landings must serialise, stretching the
	// receiver's completion well past the uncontended case.
	const n = 9
	const size = 32 << 10 // eager, 32 KB
	body := func(p *Proc) {
		if p.Rank() == 0 {
			for i := 1; i < n; i++ {
				p.Recv(i, 0)
			}
		} else {
			p.Send(0, 0, size, nil)
		}
	}
	// Cluster A has 2 cores/node: place senders on distinct nodes by
	// using ranks 2,4,6,... — simpler: cyclic mapping spreads them.
	dep := func(contend bool) Result {
		cl := machine.ClusterA()
		cl.NICContention = contend
		d, err := machine.NewDeployment(cl, n, machine.MapCyclic)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Deployment: d, Body: body, Name: "nic"})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := dep(false)
	contended := dep(true)
	if contended.Finish <= free.Finish {
		t.Errorf("contended fan-in %v should exceed uncontended %v", contended.Finish, free.Finish)
	}
	// The stretch should be roughly the serialised transfer tail:
	// at least 4 extra transfer times of 32KB at 118MB/s (~271us each).
	extra := contended.Finish - free.Finish
	if extra < vtime.Time(1*vtime.Millisecond) {
		t.Errorf("contention only added %v; landings not serialised", extra)
	}
}

func TestNICContentionDeterministic(t *testing.T) {
	cl := machine.ClusterA()
	cl.NICContention = true
	d, err := machine.NewDeployment(cl, 8, machine.MapCyclic)
	if err != nil {
		t.Fatal(err)
	}
	body := func(p *Proc) {
		n := p.Size()
		for i := 0; i < 5; i++ {
			r := p.Irecv((p.Rank()+n-1)%n, 0)
			s := p.Isend((p.Rank()+1)%n, 0, 16<<10, nil)
			p.Wait(r, s)
		}
	}
	r1, err := Run(Config{Deployment: d, Body: body, Name: "nicdet"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Config{Deployment: d, Body: body, Name: "nicdet"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Finish != r2.Finish {
		t.Error("NIC contention broke determinism")
	}
}

func TestNICContentionIgnoresIntraNode(t *testing.T) {
	// Ranks 0,1 share a node on cluster A: contention must not change
	// their exchange at all.
	body := func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, 16<<10, nil)
		} else if p.Rank() == 1 {
			p.Recv(0, 0)
		}
	}
	run := func(contend bool) Result {
		cl := machine.ClusterA()
		cl.NICContention = contend
		d, _ := machine.NewDeployment(cl, 2, machine.MapBlock)
		res, err := Run(Config{Deployment: d, Body: body, Name: "intra"})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if run(true).Finish != run(false).Finish {
		t.Error("intra-node traffic must be unaffected by NIC contention")
	}
}

func TestAlgorithmicCollectivesSkew(t *testing.T) {
	// With algorithmic collectives, a bcast over cross-node members
	// finishes at different instants per member; the uniform model
	// gives everyone the same end.
	const n = 8
	ends := make([]vtime.Time, n)
	body := func(p *Proc) {
		info := p.Collective(network.Bcast, 0, members(n), 0, 4096, nil)
		ends[p.Rank()] = info.End
	}
	cl := machine.ClusterA()
	cl.AlgorithmicCollectives = true
	d, err := machine.NewDeployment(cl, n, machine.MapCyclic)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Deployment: d, Body: body, Name: "algo"}); err != nil {
		t.Fatal(err)
	}
	if ends[0] != 0 {
		t.Errorf("bcast root should finish at its arrival, got %v", ends[0])
	}
	distinct := map[vtime.Time]bool{}
	for _, e := range ends {
		distinct[e] = true
	}
	if len(distinct) < 3 {
		t.Errorf("algorithmic bcast should skew completions, got %v", ends)
	}
}

func TestAlgorithmicCollectivesDeterministic(t *testing.T) {
	cl := machine.ClusterB()
	cl.AlgorithmicCollectives = true
	d, err := machine.NewDeployment(cl, 12, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	body := func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Advance(vtime.Duration(p.Rank()+1) * vtime.Microsecond)
			p.Collective(network.Allreduce, 0, members(12), 0, 256, nil)
			p.Collective(network.Alltoall, 0, members(12), 0, 1024, nil)
		}
	}
	r1, err := Run(Config{Deployment: d, Body: body, Name: "algodet"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Config{Deployment: d, Body: body, Name: "algodet"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Finish != r2.Finish {
		t.Error("algorithmic collectives broke determinism")
	}
	if r1.Finish <= 0 {
		t.Error("run must take time")
	}
}
