package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"errors"
	"sync"
)

// cacheKey identifies one analysis result: the SHA-256 of the uploaded
// tracefile bytes plus the warm-occurrence selector, which changes the
// table rows. The v2 whole-file CRC cannot serve as the key: it
// depends only on the file's layout (see trace.FileCRC), so distinct
// traces of the same size share it.
type cacheKey struct {
	sum  [sha256.Size]byte
	warm int
}

// lruCache is a mutex-guarded LRU over analysis responses. Values are
// immutable once inserted (handlers must never mutate a served
// response), so a hit is a pointer copy.
type lruCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recent
	items map[cacheKey]*list.Element
}

type lruEntry struct {
	key cacheKey
	val *AnalyzeResponse
}

func newLRUCache(max int) *lruCache {
	if max < 1 {
		max = 1
	}
	return &lruCache{max: max, ll: list.New(), items: make(map[cacheKey]*list.Element)}
}

func (c *lruCache) get(k cacheKey) (*AnalyzeResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) put(k cacheKey, v *AnalyzeResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = v
		return
	}
	c.items[k] = c.ll.PushFront(&lruEntry{key: k, val: v})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// flightGroup deduplicates concurrent identical submissions: all
// requests for one cacheKey share a single pipeline execution. Unlike
// the classic singleflight, a leader that dies of *its own* deadline
// does not poison its followers — a follower whose context is still
// live re-runs the work as the new leader.
type flightGroup struct {
	mu    sync.Mutex
	calls map[cacheKey]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  *AnalyzeResponse
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[cacheKey]*flightCall)}
}

// do executes fn once per key among concurrent callers. The returned
// bool reports whether this caller was the leader (false = result was
// shared — the dedup the service counts). When the shared result is a
// cancellation artifact of the leader's context, a live follower
// retries leadership instead of inheriting the corpse.
func (g *flightGroup) do(ctx context.Context, k cacheKey, fn func() (*AnalyzeResponse, error)) (*AnalyzeResponse, error, bool) {
	for {
		g.mu.Lock()
		if c, ok := g.calls[k]; ok {
			g.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err(), false
			}
			if c.err != nil && ctx.Err() == nil &&
				(errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
				continue // leader died of its deadline; we are alive — take over
			}
			return c.val, c.err, false
		}
		c := &flightCall{done: make(chan struct{})}
		g.calls[k] = c
		g.mu.Unlock()

		c.val, c.err = fn()
		g.mu.Lock()
		delete(g.calls, k)
		g.mu.Unlock()
		close(c.done)
		return c.val, c.err, true
	}
}
