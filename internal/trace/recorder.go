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

// Record appends a copy of *e, written once, straight into the
// current chunk, and derives the copy's Process, Number, LT and
// ComputeBefore; *e itself is not modified. The caller fills the
// communication fields and physical times.
func (r *Recorder) Record(e *Event) {
	if len(r.cur) == cap(r.cur) {
		if r.cur != nil {
			r.full = append(r.full, r.cur)
		}
		r.cur = make([]Event, 0, min(max(2*cap(r.cur), firstChunk), recorderChunk))
	}
	r.cur = r.cur[:len(r.cur)+1]
	s := &r.cur[len(r.cur)-1]
	*s = *e
	s.Process = r.proc
	s.Number = int64(r.n)
	s.LT = NoLT
	s.ComputeBefore = s.Enter.Sub(r.lastExit)
	if s.ComputeBefore < 0 {
		// Overlapping nonblocking operations: project them onto a
		// sequential event stream by clamping to the previous exit.
		s.ComputeBefore = 0
		s.Enter = r.lastExit
		if s.Exit < s.Enter {
			s.Exit = s.Enter
		}
	}
	r.lastExit = s.Exit
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
