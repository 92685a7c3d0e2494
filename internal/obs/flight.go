package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// DefaultFlightCapacity is the ring size NewFlightRecorder uses when
// given a non-positive capacity.
const DefaultFlightCapacity = 1024

// FlightEvent is one structured entry of the flight recorder: a
// monotonically increasing sequence number, the wall-clock instant it
// was recorded, a dotted kind ("fault.msg_lost", "repo.quarantine",
// "sim.deadlock", ...), a short message, and two kind-specific scalars
// (Rank is -1 when the event is not rank-scoped).
type FlightEvent struct {
	Seq  uint64    `json:"seq"`
	Wall time.Time `json:"wall"`
	Kind string    `json:"kind"`
	Msg  string    `json:"msg,omitempty"`
	Rank int       `json:"rank"`
	V    int64     `json:"v"`
}

// FlightRecorder is a fixed-capacity ring buffer of recent structured
// events — the "what just happened" view a live telemetry scrape or a
// post-mortem dump needs, at a bounded, known memory cost. Recording
// takes one short mutex hold and performs no allocation after the ring
// is first filled in (callers pass static kind strings and scalars),
// so it is cheap enough to call from simulator rank coroutines. When
// the ring wraps, the oldest events are overwritten and counted as
// dropped.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []FlightEvent
	next uint64 // total events ever recorded; slot = next % cap
}

// NewFlightRecorder returns a recorder retaining the last capacity
// events (DefaultFlightCapacity when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{ring: make([]FlightEvent, 0, capacity)}
}

// Record appends one event. Safe on a nil recorder and for concurrent
// use.
func (f *FlightRecorder) Record(kind, msg string, rank int, v int64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	ev := FlightEvent{Seq: f.next, Wall: time.Now(), Kind: kind, Msg: msg, Rank: rank, V: v}
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, ev)
	} else {
		f.ring[f.next%uint64(cap(f.ring))] = ev
	}
	f.next++
	f.mu.Unlock()
}

// FlightSnapshot is a consistent copy of the recorder's state: the
// retained events oldest-first, the total ever recorded, and how many
// were overwritten by ring wraparound.
type FlightSnapshot struct {
	TakenAt time.Time     `json:"taken_at"`
	Total   uint64        `json:"total"`
	Dropped uint64        `json:"dropped"`
	Events  []FlightEvent `json:"events"`
}

// Snapshot copies the retained events in recording order (oldest
// first). Safe on a nil recorder (empty snapshot).
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	s := FlightSnapshot{TakenAt: time.Now(), Events: []FlightEvent{}}
	if f == nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s.Total = f.next
	n := uint64(len(f.ring))
	s.Dropped = f.next - n
	s.Events = make([]FlightEvent, 0, n)
	for i := uint64(0); i < n; i++ {
		// Oldest retained event sits at next-n; slots wrap modulo cap.
		s.Events = append(s.Events, f.ring[(f.next-n+i)%uint64(cap(f.ring))])
	}
	return s
}

// Len returns the number of retained events; zero on nil.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ring)
}

// WriteJSON dumps the snapshot as indented JSON — the on-demand and
// on-error dump format.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.Snapshot())
}
