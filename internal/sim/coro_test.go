package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"pas2p/internal/network"
	"pas2p/internal/vtime"
)

// TestRunLeavesNoGoroutines ends a run on each of its exit paths and
// requires every rank coroutine to be gone once Run returns: a run to
// completion, a deadlock, a rank that panics while the others are
// parked, the early stop of a settled run, and a failure before some
// ranks were ever scheduled. The ranks parked or never started when the
// run ends are the ones abort must unwind.
func TestRunLeavesNoGoroutines(t *testing.T) {
	const ranks = 4
	ring := func(p *Proc, rounds int) {
		n, r := p.Size(), p.Rank()
		for i := 0; i < rounds; i++ {
			id := p.Isend((r+1)%n, i, 64, nil)
			p.Recv((r+n-1)%n, i)
			p.Wait(id)
		}
	}
	for _, tc := range []struct {
		name string
		body func(p *Proc)
		want error // nil: the run succeeds
		// finished and started count the ranks that returned from and
		// entered the body.
		finished, started int
	}{
		{"completion", func(p *Proc) { ring(p, 5) }, nil, ranks, ranks},
		{"deadlock", func(p *Proc) {
			p.Advance(vtime.Duration(p.Rank()+1) * vtime.Microsecond)
			p.Recv((p.Rank()+1)%p.Size(), 0)
		}, ErrDeadlock, 0, ranks},
		{"panic while others park", func(p *Proc) {
			if p.Rank() == ranks-1 {
				p.Advance(vtime.Millisecond)
				panic("boom")
			}
			p.Collective(network.Barrier, 0, []int{0, 1, 2, 3}, 0, 0, nil)
		}, ErrRankPanic, 0, ranks},
		{"settled early stop", func(p *Proc) {
			p.Retire()
			ring(p, 1000)
		}, nil, 0, ranks},
		{"failure before some ranks ran", func(p *Proc) {
			if p.Rank() == 0 {
				panic("first")
			}
		}, ErrRankPanic, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var finished, started int
			before := runtime.NumGoroutine()
			_, err := Run(Config{Deployment: testDeployment(t, ranks), Name: tc.name, Body: func(p *Proc) {
				started++
				tc.body(p)
				finished++
			}})
			if !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) {
				t.Fatalf("Run returned %v, want %v", err, tc.want)
			}
			if finished != tc.finished || started != tc.started {
				t.Fatalf("%d ranks started and %d finished, want %d and %d",
					started, finished, tc.started, tc.finished)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before the run, %d after", before, runtime.NumGoroutine())
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
