package sim

import (
	"testing"

	"pas2p/internal/network"
	"pas2p/internal/vtime"
)

// Every operation writes its outcome in place into the rank's pending
// slot, and nothing resets the slot between operations. These tests
// pin that each call still returns exactly its own PtPInfo/CollInfo and
// payload, whichever path completed it (inline, or while the rank was
// parked), and that the slot keeps no payload alive after the call.

// checkPtP reports a mismatch between a returned PtPInfo and the
// message it should describe.
func checkPtP(t *testing.T, what string, got PtPInfo, src, dst, tag int, payload any) {
	t.Helper()
	if got.Src != src || got.Dst != dst || got.Tag != tag || got.Payload != payload {
		t.Errorf("%s: got src=%d dst=%d tag=%d payload=%v, want src=%d dst=%d tag=%d payload=%v",
			what, got.Src, got.Dst, got.Tag, got.Payload, src, dst, tag, payload)
	}
}

// checkSlotClear reports a payload reference left behind in the
// rank's pending slot.
func checkSlotClear(t *testing.T, p *Proc, what string) {
	t.Helper()
	res := &p.st.pending
	if res.ptp.Payload != nil || res.ptps != nil || res.coll.Payloads != nil {
		t.Errorf("%s: pending slot still holds ptp.Payload=%v ptps=%v coll.Payloads=%v",
			what, res.ptp.Payload, res.ptps, res.coll.Payloads)
	}
}

// resultOrders run each exchange twice. "parked" delays rank 1's sends
// so rank 0 parks on its first wait and the completion arrives through
// maybeWake; "inline" delays rank 0 so every message has arrived
// before it waits.
var resultOrders = []struct {
	name        string
	senderDelay vtime.Duration
	recvDelay   vtime.Duration
}{
	{"parked", 50 * vtime.Microsecond, 0},
	{"inline", 0, 50 * vtime.Microsecond},
}

func TestWaitPairThenSingleton(t *testing.T) {
	for _, o := range resultOrders {
		o := o
		t.Run(o.name, func(t *testing.T) {
			run(t, 2, func(p *Proc) {
				if p.Rank() == 1 {
					p.Advance(o.senderDelay)
					p.Send(0, 1, 64, "a")
					p.Send(0, 2, 64, "b")
					p.Send(0, 3, 64, "c")
					return
				}
				a := p.Irecv(1, 1)
				b := p.Irecv(1, 2)
				p.Advance(o.recvDelay)
				pair := p.Wait(a, b)
				checkSlotClear(t, p, "after Wait(a, b)")
				c := p.Irecv(1, 3)
				single := p.Wait(c)
				checkSlotClear(t, p, "after Wait(c)")
				if len(pair) != 2 || len(single) != 1 {
					t.Fatalf("Wait(a, b) returned %d infos, Wait(c) %d", len(pair), len(single))
				}
				checkPtP(t, "Wait(a, b)[0]", pair[0], 1, 0, 1, "a")
				checkPtP(t, "Wait(a, b)[1]", pair[1], 1, 0, 2, "b")
				checkPtP(t, "Wait(c)[0]", single[0], 1, 0, 3, "c")
			})
		})
	}
}

func TestIsendIrecvThenWait(t *testing.T) {
	for _, o := range resultOrders {
		o := o
		t.Run(o.name, func(t *testing.T) {
			run(t, 2, func(p *Proc) {
				if p.Rank() == 1 {
					p.Advance(o.senderDelay)
					p.Send(0, 4, 64, "in")
					p.Recv(0, 5)
					return
				}
				r := p.Irecv(1, 4)
				s := p.Isend(1, 5, 64, "out")
				p.Advance(o.recvDelay)
				got := p.Wait(r)
				checkPtP(t, "Wait(irecv)", got[0], 1, 0, 4, "in")
				got = p.Wait(s)
				// A send's info carries no payload, even right after a
				// receive left one in the slot.
				checkPtP(t, "Wait(isend)", got[0], 0, 1, 5, nil)
				if !got[0].IsSend {
					t.Error("Wait(isend) info not marked IsSend")
				}
				checkSlotClear(t, p, "after Wait(isend)")
			})
		})
	}
}

func TestCollectiveThenRecv(t *testing.T) {
	all := members(3)
	run(t, 3, func(p *Proc) {
		r := p.Rank()
		// Rank 2 arrives last, so ranks 0 and 1 get their CollInfo
		// while parked and rank 2 inline.
		p.Advance(vtime.Duration(r+1) * vtime.Microsecond)
		coll := p.Collective(network.Allgather, 0, all, 0, 8, r*10)
		checkSlotClear(t, p, "after Collective")
		if coll.Op != network.Allgather || coll.Seq != 0 || len(coll.Payloads) != 3 {
			t.Errorf("rank %d: collective info %+v", r, coll)
		}
		for i, v := range coll.Payloads {
			if v != i*10 {
				t.Errorf("rank %d: payload[%d] = %v, want %d", r, i, v, i*10)
			}
		}
		next, prev := (r+1)%3, (r+2)%3
		p.Send(next, 7, 64, r)
		got := p.Recv(prev, 7)
		checkPtP(t, "Recv after Collective", got, prev, r, 7, prev)
		checkSlotClear(t, p, "after Recv")
		second := p.Collective(network.Barrier, 0, all, 0, 0, nil)
		if second.Op != network.Barrier || second.Seq != 1 || second.Payloads[r] != nil {
			t.Errorf("rank %d: second collective info %+v", r, second)
		}
	})
}

// TestParkedRecvWokenInPlace covers a blocking receive completed by
// maybeWake while its rank was parked, following one completed inline:
// each returns its own message.
func TestParkedRecvWokenInPlace(t *testing.T) {
	run(t, 2, func(p *Proc) {
		if p.Rank() == 1 {
			p.Send(0, 1, 64, "early")
			p.Advance(100 * vtime.Microsecond)
			p.Send(0, 2, 64, "late")
			return
		}
		p.Advance(50 * vtime.Microsecond)
		first := p.Recv(1, 1) // already arrived: completes inline
		second := p.Recv(1, 2)
		if p.Now() < vtime.Time(100*vtime.Microsecond) {
			t.Errorf("late receive completed at %v, before its send", p.Now())
		}
		checkPtP(t, "inline Recv", first, 1, 0, 1, "early")
		checkPtP(t, "parked Recv", second, 1, 0, 2, "late")
		checkSlotClear(t, p, "after parked Recv")
	})
}

// TestWaitBuffersDropOldPayloads: a Wait result stays in its buffer
// only until the buffer's next use, even when that use is shorter.
func TestWaitBuffersDropOldPayloads(t *testing.T) {
	run(t, 2, func(p *Proc) {
		if p.Rank() == 1 {
			for i, v := range []string{"a", "b", "c", "d"} {
				p.Send(0, i, 64, v)
			}
			return
		}
		p.Wait(p.Irecv(1, 0), p.Irecv(1, 1))
		p.Wait(p.Irecv(1, 2))
		p.Wait(p.Irecv(1, 3))
		for i, buf := range p.st.waitOut {
			for j, info := range buf[:cap(buf)] {
				if info.Payload == "a" || info.Payload == "b" {
					t.Errorf("wait buffer %d slot %d still holds payload %v", i, j, info.Payload)
				}
			}
		}
	})
}

// TestHotPathAllocs guards the per-operation path: a blocking
// Send/Recv round trip, a Wait on one request or two, and a collective
// without payloads allocate nothing.
func TestHotPathAllocs(t *testing.T) {
	const runs = 200
	pair := members(2)
	cases := []struct {
		name     string
		max      float64
		measured func(p *Proc)
		partner  func(p *Proc)
	}{
		{"send-recv", 0, func(p *Proc) {
			p.Send(1, 0, 64, nil)
			p.Recv(1, 1)
		}, func(p *Proc) {
			p.Recv(0, 0)
			p.Send(0, 1, 64, nil)
		}},
		{"singleton-wait", 0, func(p *Proc) {
			p.Wait(p.Irecv(1, 0))
		}, func(p *Proc) {
			p.Send(0, 0, 64, nil)
		}},
		{"pair-wait", 0, func(p *Proc) {
			p.Wait(p.Irecv(1, 0), p.Isend(1, 1, 64, nil))
		}, func(p *Proc) {
			p.Wait(p.Irecv(0, 1), p.Isend(0, 0, 64, nil))
		}},
		{"collective", 0, func(p *Proc) {
			p.Collective(network.Allreduce, 0, pair, 0, 8, nil)
		}, func(p *Proc) {
			p.Collective(network.Allreduce, 0, pair, 0, 8, nil)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var allocs float64
			run(t, 2, func(p *Proc) {
				if p.Rank() == 1 {
					// AllocsPerRun calls the function once more to warm up.
					for i := 0; i < runs+1; i++ {
						tc.partner(p)
					}
					return
				}
				allocs = testing.AllocsPerRun(runs, func() { tc.measured(p) })
			})
			if allocs > tc.max {
				t.Errorf("%v allocations per operation, want at most %v", allocs, tc.max)
			}
		})
	}
}
