package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation (one application's prediction, one trace's analysis, one
// served request) share Op; Parent is 0 for the operation's root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the recorder was created
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newOp returns a fresh operation ID.
func (r *recorder) newOp() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// start opens a span and returns its ID; end closes it.
func (r *recorder) start(op, parent int, name string) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an interval measured elsewhere and returns its ID.
func (r *recorder) add(op, parent int, name string, start, end time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return len(r.spans)
}

// adopt makes span id a child of parent, for a parent recorded after
// its child.
func (r *recorder) adopt(parent, id int) {
	r.mu.Lock()
	r.spans[id-1].Parent = parent
	r.mu.Unlock()
}

// at is instant t on the recorder clock.
func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.t0) }

// call runs f inside a span named name.
func (r *recorder) call(op, parent int, name string, f func() error) error {
	id := r.start(op, parent, name)
	err := f()
	r.end(id)
	return err
}

// selfTimes sums each span name's self time: its duration minus the
// part of it that its child spans cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return selfTimes(r.spans)
}

func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	kids = append([]span(nil), kids...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	return total + curE - curS
}

// wall sums the durations of the spans named name.
func (r *recorder) wall(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// save writes the spans to path as a JSON array, once the run is over.
func (r *recorder) save(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
