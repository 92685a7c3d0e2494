package predict

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/sim"
)

// TestLiveSignFailures: Sign analyses the traced run while it runs. A
// rank that panics mid-run, a run that deadlocks and a context
// cancelled mid-run each end Sign with a typed error, the run's own
// failure before the analysis's, and leave no goroutine behind: the
// run is waited for, and the analysis never waits on a recording that
// will not close.
func TestLiveSignFailures(t *testing.T) {
	const procs, iters = 4, 400
	ring := func(fail func(c *mpi.Comm)) func(c *mpi.Comm) {
		return func(c *mpi.Comm) {
			n := c.Size()
			for i := 0; i < iters; i++ {
				c.Compute(1e4)
				c.SendrecvN((c.Rank()+1)%n, 0, 256, (c.Rank()+n-1)%n, 0)
				if i%8 == 7 {
					c.Barrier()
				}
				if i == iters/2 {
					fail(c)
				}
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cases := []struct {
		name string
		ctx  context.Context
		fail func(c *mpi.Comm)
		want error
		text string
	}{
		{"panic", context.Background(), func(c *mpi.Comm) {
			if c.Rank() == 2 {
				panic("boom")
			}
		}, sim.ErrRankPanic, "instrumented run"},
		{"deadlock", context.Background(), func(c *mpi.Comm) {
			c.RecvN((c.Rank()+1)%c.Size(), 9)
		}, sim.ErrDeadlock, "instrumented run"},
		{"cancel", ctx, func(c *mpi.Comm) {
			if c.Rank() == 0 {
				cancel()
			}
		}, context.Canceled, ""},
	}
	before := runtime.NumGoroutine()
	for _, tc := range cases {
		e := Experiment{
			App:           mpi.App{Name: tc.name, Procs: procs, Body: ring(tc.fail)},
			Base:          dep(t, machine.ClusterA(), procs),
			EventOverhead: mpi.PAS2PEventOverhead,
		}
		done := make(chan error, 1)
		go func() {
			_, err := Sign(tc.ctx, e)
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(time.Minute):
			t.Fatalf("%s: Sign still waits after a minute", tc.name)
		}
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.text) {
			t.Errorf("%s: Sign returned %v, want %v from the %s", tc.name, err, tc.want, tc.text)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
