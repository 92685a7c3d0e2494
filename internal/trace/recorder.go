package trace

import (
	"pas2p/internal/vtime"
)

// A Recorder's first chunk holds firstChunk events; each later chunk
// doubles the previous one, up to recorderChunk. Chunks are never
// regrown, so a recorded event is copied once more only, when
// FromRecorders assembles the trace, and a short stream does not pay
// for a full-size chunk.
const (
	firstChunk    = 64
	recorderChunk = 1024
)

// Recorder accumulates the event stream of a single process during an
// instrumented run. One Recorder belongs to one rank goroutine, so no
// locking is needed; recorders are combined with FromRecorders
// afterwards.
type Recorder struct {
	proc     int32
	full     [][]Event // filled chunks, in recording order
	cur      []Event   // the chunk being filled
	n        int
	lastExit vtime.Time
}

// NewRecorder creates a recorder for one process.
func NewRecorder(proc int) *Recorder {
	return &Recorder{proc: int32(proc)}
}

// Record appends one event, deriving Number and ComputeBefore. The
// caller fills the communication fields and physical times.
func (r *Recorder) Record(e Event) {
	e.Process = r.proc
	e.Number = int64(r.n)
	e.LT = NoLT
	e.ComputeBefore = e.Enter.Sub(r.lastExit)
	if e.ComputeBefore < 0 {
		// Overlapping nonblocking operations: project them onto a
		// sequential event stream by clamping to the previous exit.
		e.ComputeBefore = 0
		e.Enter = r.lastExit
		if e.Exit < e.Enter {
			e.Exit = e.Enter
		}
	}
	r.lastExit = e.Exit
	if len(r.cur) == cap(r.cur) {
		if r.cur != nil {
			r.full = append(r.full, r.cur)
		}
		r.cur = make([]Event, 0, min(max(2*cap(r.cur), firstChunk), recorderChunk))
	}
	r.cur = append(r.cur, e)
	r.n++
}

// Events returns a copy of the recorded stream.
func (r *Recorder) Events() []Event { return r.appendTo(make([]Event, 0, r.n)) }

// appendTo appends the recorded stream to dst.
func (r *Recorder) appendTo(dst []Event) []Event {
	for _, c := range r.full {
		dst = append(dst, c...)
	}
	return append(dst, r.cur...)
}
