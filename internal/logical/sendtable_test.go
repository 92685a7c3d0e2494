package logical

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

// TestSendTableMatchesMap drives the send table and a map keyed on
// (sender, send sequence) through the same random puts and takes, with
// keys in and out of every window; they must answer alike at every
// step, across front trims and compactions, and the table must know
// which sends were put.
func TestSendTableMatchesMap(t *testing.T) {
	const procs = 3
	rng := rand.New(rand.NewSource(1))
	tab := newSendTable(procs)
	ref := map[[2]int64]int64{}
	seq := make([]int64, procs)
	for step := 0; step < 200_000; step++ {
		p := int64(rng.Intn(procs))
		switch rng.Intn(4) {
		case 0, 1:
			lt := int64(rng.Intn(1 << 20))
			tab.put(int32(p), lt)
			ref[[2]int64{p, seq[p]}] = lt
			seq[p]++
		default:
			// Mostly recent sequences, so fronts get taken and
			// trimmed; sometimes keys outside any window.
			src, s := p, seq[p]-1-int64(rng.Intn(2048))
			switch rng.Intn(16) {
			case 0:
				src = []int64{-1, procs, 1 << 40, math.MinInt64}[rng.Intn(4)]
			case 1:
				s = []int64{-1, seq[p], math.MaxInt64, math.MinInt64}[rng.Intn(4)]
			}
			want, wantOK := ref[[2]int64{src, s}]
			delete(ref, [2]int64{src, s})
			if got, ok := tab.take(src, s); ok != wantOK || got != want {
				t.Fatalf("step %d: take(%d,%d) = %d,%v, want %d,%v", step, src, s, got, ok, want, wantOK)
			}
			wantSent := src >= 0 && src < procs && s >= 0 && s < seq[src]
			if got := tab.sent(src, s); got != wantSent {
				t.Fatalf("step %d: sent(%d,%d) = %v, want %v", step, src, s, got, wantSent)
			}
		}
	}
	if n := liveSlots(tab); n < len(ref) {
		t.Fatalf("table holds %d live slots for %d untaken sends", n, len(ref))
	}
}

// liveSlots returns how many slots the table holds past the dropped
// fronts, taken or not.
func liveSlots(t *sendTable) int {
	n := 0
	for p, w := range t.win {
		n += len(w) - t.head[p]
	}
	return n
}

// badRelationTraces returns two-process traces whose last receive
// names a send that does not exist: a sender out of range, a sequence
// before the first or past the last send, or a send an earlier
// receive already took.
func badRelationTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	keys := map[string][2]int64{
		"src=-1":          {-1, 0},
		"src=procs":       {2, 0},
		"src=1<<40":       {1 << 40, 0},
		"seq=-1":          {0, -1},
		"seq=past-last":   {0, 2},
		"seq=MinInt64":    {0, math.MinInt64},
		"seq=MaxInt64":    {0, math.MaxInt64},
		"seq=already-got": {0, 0},
	}
	out := map[string]*trace.Trace{}
	for name, k := range keys {
		send := func(n, seq int64) trace.Event {
			return trace.Event{Number: n, Kind: trace.Send, Involved: 2, CollOp: -1, Peer: 1,
				Enter: vtime.Time(10 * n), Exit: vtime.Time(10*n + 1), RelA: 0, RelB: seq}
		}
		recv := func(n int64, rel [2]int64) trace.Event {
			return trace.Event{Process: 1, Number: n, Kind: trace.Recv, Involved: 2, CollOp: -1,
				Enter: vtime.Time(100 + 10*n), Exit: vtime.Time(101 + 10*n), RelA: rel[0], RelB: rel[1]}
		}
		tr, err := trace.NewTrace("bad-rel", 2, [][]trace.Event{
			{send(0, 0), send(1, 1)},
			{recv(0, [2]int64{0, 0}), recv(1, k)},
		}, 1000)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = tr
	}
	return out
}

// TestOrderBadRelationKeys: a receive naming a send outside the table
// is a typed ErrNoOrder stall with the oracle's exact text, never an
// index panic, and the Lamport order rejects every such key too. The
// oracle pairs a receive with its send without taking it, so for a
// second receive of one send Order's text is checked on its own, and
// the Lamport order names the send received twice.
func TestOrderBadRelationKeys(t *testing.T) {
	for name, tr := range badRelationTraces(t) {
		_, err := Order(tr)
		if !errors.Is(err, ErrNoOrder) {
			t.Fatalf("%s: Order error %v, want ErrNoOrder", name, err)
		}
		if name == "seq=already-got" {
			const want = `logical: trace "bad-rel": full pass over 1 pending procs made no progress; receive on proc 1 references send (0,0) that never resolves`
			if err.Error() != want {
				t.Fatalf("%s: Order error %q, want %q", name, err, want)
			}
		} else if _, want := orderOracle(tr); want == nil || err.Error() != want.Error() {
			t.Fatalf("%s: Order error %q, oracle's %v", name, err, want)
		}
		_, err = OrderLamport(tr)
		if !errors.Is(err, ErrNoOrder) {
			t.Fatalf("%s: OrderLamport error %v, want ErrNoOrder", name, err)
		}
		if twice := strings.Contains(err.Error(), "send (0,0) received twice"); twice != (name == "seq=already-got") {
			t.Fatalf("%s: OrderLamport error %q", name, err)
		}
	}
}
