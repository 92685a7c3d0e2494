package sim

import (
	"fmt"
	"reflect"
	"testing"

	"pas2p/internal/machine"
	"pas2p/internal/network"
	"pas2p/internal/vtime"
)

// pickScan is the reference scheduler the ready heap replaced: scan
// every rank and take the lowest rank among the earliest wakes.
func pickScan(e *Engine) *procState {
	var best *procState
	for _, ps := range e.procs {
		if ps.status != stReady {
			continue
		}
		if best == nil || ps.wake < best.wake {
			best = ps
		}
	}
	return best
}

// schedBodies are the program shapes the heap-vs-scan equivalence
// property runs: they cover every way a rank can become ready (initial
// start, point-to-point wake for eager and rendezvous traffic,
// wildcard resolution, collective release) and both blocking and
// nonblocking operations.
var schedBodies = []struct {
	name  string
	ranks int
	body  func(p *Proc)
}{
	{"ring-isend", 8, func(p *Proc) {
		n, r := p.Size(), p.Rank()
		for round := 0; round < 6; round++ {
			p.Advance(vtime.Duration(1+(r+round)%5) * vtime.Microsecond)
			size := 64
			if (r+round)%3 == 0 {
				size = 1 << 20 // rendezvous
			}
			id := p.Isend((r+1)%n, round, size, nil)
			p.Recv((r+n-1)%n, round)
			p.Wait(id)
		}
	}},
	{"wavefront", 6, func(p *Proc) {
		n, r := p.Size(), p.Rank()
		for sweep := 0; sweep < 5; sweep++ {
			if r > 0 {
				p.Recv(r-1, sweep)
			}
			p.Advance(vtime.Duration(3+r%2) * vtime.Microsecond)
			if r < n-1 {
				p.Send(r+1, sweep, 128, nil)
			}
		}
	}},
	{"master-worker-wildcard", 8, func(p *Proc) {
		n, r := p.Size(), p.Rank()
		if r == 0 {
			for i := 0; i < 4*(n-1); i++ {
				p.Recv(AnySource, AnyTag)
			}
			return
		}
		for i := 0; i < 4; i++ {
			p.Advance(vtime.Duration(r*7+i) * vtime.Microsecond)
			p.Send(0, i, 256, nil)
		}
	}},
	{"collective-mix", 8, func(p *Proc) {
		n, r := p.Size(), p.Rank()
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		evens := []int{0, 2, 4, 6}
		for round := 0; round < 4; round++ {
			p.Advance(vtime.Duration(1+r) * vtime.Microsecond)
			p.Collective(network.Allreduce, 0, all, 0, 1024, nil)
			if r%2 == 0 {
				p.Collective(network.Barrier, 1, evens, 0, 0, nil)
			}
			p.Collective(network.Barrier, 0, all, 0, 0, nil)
		}
	}},
	{"pairwise-waitall", 8, func(p *Proc) {
		n, r := p.Size(), p.Rank()
		peer := r ^ 1
		if peer >= n {
			return
		}
		for round := 0; round < 5; round++ {
			size := 512
			if round%2 == 1 {
				size = 2 << 20 // rendezvous
			}
			rid := p.Irecv(peer, round)
			sid := p.Isend(peer, round, size, nil)
			p.Advance(vtime.Duration(2+r%3) * vtime.Microsecond)
			p.Wait(rid, sid)
		}
	}},
}

// TestHeapSchedulerMatchesScan is the equivalence property the ready
// heap must satisfy: for every program shape, each rank the heap picks
// is the one the reference O(P) linear scan would pick from the same
// engine state — so the whole schedule, and with it every virtual
// timing, is the scan scheduler's.
func TestHeapSchedulerMatchesScan(t *testing.T) {
	for _, tc := range schedBodies {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Deployment: testDeployment(t, tc.ranks), Name: tc.name, Body: tc.body}
			e, err := newEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			picks, diverged := 0, ""
			e.onPick = func(ps *procState) {
				picks++
				if want := pickScan(e); want != ps && diverged == "" {
					diverged = fmt.Sprintf("pick %d: heap chose rank %d (wake %v), scan rank %d (wake %v)",
						picks, ps.rank, ps.wake, want.rank, want.wake)
				}
			}
			if _, err := e.run(); err != nil {
				t.Fatal(err)
			}
			if diverged != "" {
				t.Fatal(diverged)
			}
			if picks < tc.ranks {
				t.Fatalf("only %d picks for %d ranks", picks, tc.ranks)
			}
		})
	}
}

// TestWildcardTieBreakDeterminism pins the wildcard-receive tie-break:
// when two candidate messages arrive at the identical virtual instant,
// the lowest source rank wins, on every run.
func TestWildcardTieBreakDeterminism(t *testing.T) {
	// Ranks 1 and 2 share rank 0's node-distance profile on cluster A
	// (block mapping puts 0 and 1 on one node); use ranks 2 and 3 as
	// the senders so both cross the interconnect identically and their
	// messages arrive at exactly the same time.
	d, err := machine.NewDeployment(machine.ClusterA(), 6, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	var first []int
	for trial := 0; trial < 10; trial++ {
		var got []int
		_, err := Run(Config{Deployment: d, Name: "tie", Body: func(p *Proc) {
			switch p.Rank() {
			case 0:
				for i := 0; i < 2; i++ {
					info := p.Recv(AnySource, 0)
					got = append(got, info.Src)
				}
			case 2, 3:
				p.Advance(5 * vtime.Microsecond)
				p.Send(0, 0, 64, nil)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] > got[1] {
			t.Fatalf("trial %d: sources out of tie-break order: %v", trial, got)
		}
		if trial == 0 {
			first = got
			continue
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("trial %d: wildcard match order changed: %v vs %v", trial, got, first)
		}
	}
}

// TestDeadlockMessageGoldens pins the exact deadlock report text for
// every blocked-operation kind. The engine builds these descriptions
// lazily (the hot path records only a compact blockInfo), so this is
// the regression net proving laziness never changed the rendered text.
func TestDeadlockMessageGoldens(t *testing.T) {
	big := machine.ClusterA().Interconnect.EagerLimit + 1
	if intra := machine.ClusterA().IntraNode.EagerLimit + 1; intra > big {
		big = intra
	}
	cases := []struct {
		name  string
		ranks int
		body  func(p *Proc)
		want  string
	}{
		{"recv-recv", 2, func(p *Proc) {
			p.Recv(1-p.Rank(), 5+p.Rank())
		}, "sim \"golden\": deadlock: 2 of 2 ranks blocked\n" +
			"  rank 0 @ 0ns: Recv(src=1 tag=5)\n" +
			"  rank 1 @ 0ns: Recv(src=0 tag=6)"},
		{"rendezvous-send", 2, func(p *Proc) {
			if p.Rank() == 0 {
				p.Send(1, 3, big, nil)
			} else {
				p.Recv(0, 4) // wrong tag: the send never matches
			}
		}, fmt.Sprintf("sim \"golden\": deadlock: 2 of 2 ranks blocked\n"+
			"  rank 0 @ 0ns: Send(dst=1 tag=3 size=%d, rendezvous)\n"+
			"  rank 1 @ 0ns: Recv(src=0 tag=4)", big)},
		{"wait", 2, func(p *Proc) {
			if p.Rank() == 0 {
				id := p.Irecv(1, 0)
				p.Wait(id)
			}
		}, "sim \"golden\": deadlock: 1 of 2 ranks blocked\n" +
			"  rank 0 @ 0ns: Wait([1])"},
		{"collective", 3, func(p *Proc) {
			if p.Rank() < 2 {
				p.Collective(network.Barrier, 0, []int{0, 1, 2}, 0, 0, nil)
			} else {
				p.Recv(0, 9)
			}
		}, "sim \"golden\": deadlock: 3 of 3 ranks blocked\n" +
			"  rank 0 @ 0ns: Barrier(ctx=0 seq=0, 2/3 arrived)\n" +
			"  rank 1 @ 0ns: Barrier(ctx=0 seq=0, 2/3 arrived)\n" +
			"  rank 2 @ 0ns: Recv(src=0 tag=9)"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(Config{Deployment: testDeployment(t, tc.ranks), Name: "golden", Body: tc.body})
			if err == nil {
				t.Fatal("expected deadlock")
			}
			if err.Error() != tc.want {
				t.Fatalf("deadlock text changed:\ngot:  %q\nwant: %q", err.Error(), tc.want)
			}
		})
	}
}

// TestIsendInlineMatchChargesSender pins a timing rule the executor
// replay depends on: a rendezvous Isend whose matching receive is
// already posted resolves inline, and — exactly like the eager path —
// charges the sender-side rendezvous span to the Isend call itself.
// Only an Isend whose match is still pending returns with the caller's
// clock untouched. Regressing this shifts every subsequent post time
// on the sending rank and breaks bit-reproducibility of predictions.
func TestIsendInlineMatchChargesSender(t *testing.T) {
	const big = 1 << 20 // rendezvous on every cluster A path

	// Receiver posted first: the Isend must advance the sender clock.
	// Rank 0 blocks on an eager receive first so rank 1 gets scheduled
	// and parks its rendezvous receive before the Isend happens.
	var postClock, isendClock, waitEnd vtime.Time
	_, err := Run(Config{Deployment: testDeployment(t, 2), Name: "inline", Body: func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Recv(1, 9)
			postClock = p.Now()
			id := p.Isend(1, 7, big, nil)
			isendClock = p.Now()
			waitEnd = p.Wait(id)[0].End
		case 1:
			p.Send(0, 9, 64, nil)
			p.Recv(0, 7)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if isendClock <= postClock {
		t.Errorf("inline-matched rendezvous Isend left clock at %v (posted %v); want sender span charged", isendClock, postClock)
	}
	if isendClock != waitEnd {
		t.Errorf("inline-matched Isend clock %v != sender completion %v", isendClock, waitEnd)
	}

	// Receiver posts later: the Isend returns immediately and only the
	// Wait observes the completion.
	_, err = Run(Config{Deployment: testDeployment(t, 2), Name: "deferred", Body: func(p *Proc) {
		switch p.Rank() {
		case 0:
			postClock = p.Now()
			id := p.Isend(1, 7, big, nil)
			isendClock = p.Now()
			waitEnd = p.Wait(id)[0].End
		case 1:
			p.Advance(50 * vtime.Microsecond)
			p.Recv(0, 7)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if isendClock != postClock {
		t.Errorf("unmatched rendezvous Isend moved clock %v -> %v; want unchanged", postClock, isendClock)
	}
	if waitEnd <= isendClock {
		t.Errorf("Wait end %v not after Isend post %v", waitEnd, isendClock)
	}
}
