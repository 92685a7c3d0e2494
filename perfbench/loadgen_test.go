package main

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestTimingIsMeasuredFromTheDueTime(t *testing.T) {
	tm := timing{due: 10 * time.Millisecond, queued: 12 * time.Millisecond,
		begin: 40 * time.Millisecond, end: 55 * time.Millisecond}
	if tm.latency() != 45*time.Millisecond || tm.late() != 2*time.Millisecond || tm.connWait() != 28*time.Millisecond {
		t.Fatalf("latency %v late %v conn wait %v", tm.latency(), tm.late(), tm.connWait())
	}
}

// TestPrepareWaitIsTheGeneratorsOwn checks that the time a picked-up
// request waits for its upload is measured from when a connection took
// it, and that a request that never got its upload waited no time.
func TestPrepareWaitIsTheGeneratorsOwn(t *testing.T) {
	st := &step{
		tm:       []timing{{begin: 40 * time.Millisecond}, {begin: 50 * time.Millisecond}},
		prepared: []time.Duration{70 * time.Millisecond, 0},
	}
	if w := st.prepareWait(0); w != 30*time.Millisecond {
		t.Errorf("prepare wait %v, want 30ms", w)
	}
	if w := st.prepareWait(1); w != 0 {
		t.Errorf("prepare wait of a request never prepared is %v, want 0", w)
	}
}

// TestOpenLoopChargesAStallToLaterRequests stalls the server's first
// answer while more requests fall due on the single connection. Each
// of them must be charged the rest of the stall, because its latency
// runs from its due time, not from when it was sent; and the
// generator, which never waits for answers, must stay on schedule.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const (
		stall = 300 * time.Millisecond
		gap   = 20 * time.Millisecond
		n     = 12
	)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	clients := newConnClients(1)
	defer closeClients(clients)

	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	tm, _ := openLoop(context.Background(), due, 1, func(ctx context.Context, conn, i int) reply {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return reply{err: err}
		}
		return doHTTP(clients[conn], req)
	})
	for i, x := range tm {
		if x.reply.err != nil || x.reply.status != http.StatusOK {
			t.Fatalf("request %d: %v %d", i, x.reply.err, x.reply.status)
		}
		if x.late() < 0 || x.late() > gap {
			t.Errorf("request %d: generator ran %v late", i, x.late())
		}
		if rest := stall - due[i]; rest > 0 && x.latency() < rest {
			t.Errorf("request %d due at %v: latency %v, but the stall lasted until %v", i, due[i], x.latency(), stall)
		}
		if i > 0 && due[i] < stall && x.connWait() < stall-due[i]-gap {
			t.Errorf("request %d: waited %v for the connection, the stall held it %v", i, x.connWait(), stall-due[i])
		}
	}
	// Every request falls due inside the stall, so none is answered when
	// the last one is due.
	if b := backlog(tm, due[n-1]); b != n {
		t.Errorf("backlog when the last request fell due is %d, want %d", b, n)
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	due := poissonSchedule(rand.New(rand.NewSource(1)), 200, 10*time.Second)
	if len(due) < 1800 || len(due) > 2200 {
		t.Fatalf("%d arrivals in 10s at 200/s", len(due))
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] || due[i] >= 10*time.Second {
			t.Fatalf("due times out of order or range at %d", i)
		}
	}
	again := poissonSchedule(rand.New(rand.NewSource(1)), 200, 10*time.Second)
	if len(again) != len(due) || again[len(again)-1] != due[len(due)-1] {
		t.Fatal("same seed gave another schedule")
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms},
		{ID: 4, Parent: 2, Name: "c", Start: 20 * ms, End: 25 * ms},
	}
	self := selfTimes(spans)
	if self["root"] != 50*ms || self["a"] != 25*ms || self["b"] != 30*ms || self["c"] != 5*ms {
		t.Fatalf("self times %v", self)
	}
}
