package main

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// timing is one request's life in the generator, each instant measured
// from the start of its step: when it was due, when the dispatcher
// queued it, when a connection picked it up and when its answer had
// been read.
type timing struct {
	due, queued, begin, end time.Duration
	reply                   reply
}

// latency is measured from the due time, so a stall is charged to
// every request that was due while it lasted.
func (t timing) latency() time.Duration { return t.end - t.due }

// late is how far behind its schedule the generator itself ran.
func (t timing) late() time.Duration { return t.queued - t.due }

// connWait is how long a queued request waited for a free connection.
func (t timing) connWait() time.Duration { return t.begin - t.queued }

// reply is what a request got back.
type reply struct {
	status      int
	cache, mode string
	body        []byte
	err         error
}

// poissonSchedule returns the due times of an open loop with Poisson
// arrivals at rate per second over d.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}

// openLoop sends request i at due[i] whether or not earlier requests
// have been answered, over conns connections. The dispatcher never
// blocks on a busy connection: a request it cannot hand over waits in
// the queue, and that wait counts in its latency. With every due time
// zero it is a closed batch that keeps all connections busy. It returns
// the timings and the instant they are measured from.
func openLoop(ctx context.Context, due []time.Duration, conns int, send func(ctx context.Context, conn, i int) reply) ([]timing, time.Time) {
	tm := make([]timing, len(due))
	// Sized to the number of sends, so queueing never blocks.
	queue := make(chan int, len(due))
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			defer wg.Done()
			for i := range queue {
				tm[i].begin = time.Since(t0)
				if ctx.Err() != nil {
					tm[i].reply = reply{err: ctx.Err()}
				} else {
					tm[i].reply = send(ctx, c, i)
				}
				tm[i].end = time.Since(t0)
			}
		}(c)
	}
	timer := time.NewTimer(0)
	<-timer.C
	for i, d := range due {
		if wait := d - time.Since(t0); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		tm[i].due = d
		tm[i].queued = time.Since(t0)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return tm, t0
}

// newConnClients returns one HTTP client per connection, each limited
// to a single connection to the server.
func newConnClients(conns int) []*http.Client {
	out := make([]*http.Client, conns)
	for i := range out {
		out[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	return out
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// doHTTP sends req and reads the whole answer.
func doHTTP(c *http.Client, req *http.Request) reply {
	resp, err := c.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"),
		mode: resp.Header.Get("X-Analyze-Mode"), body: body, err: err}
}

// backlog counts requests due by t but not yet answered.
func backlog(tm []timing, t time.Duration) int {
	n := 0
	for _, x := range tm {
		if x.due <= t && x.end > t {
			n++
		}
	}
	return n
}
