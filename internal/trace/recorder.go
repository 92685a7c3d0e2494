package trace

import (
	"fmt"

	"pas2p/internal/vtime"
)

// A Recorder's first chunk holds firstChunk events; each later chunk
// doubles the previous one, up to recorderChunk. Chunks are never
// regrown, so a recorded event stays where it was written: stage A
// reads it there (Recording.Streams), and only a tracefile writer
// copies it once more (Recording.Trace). A short stream does not pay
// for a full-size chunk.
const (
	firstChunk    = 64
	recorderChunk = 1024
)

// Recorder accumulates the event stream of a single process during an
// instrumented run. One Recorder belongs to one rank goroutine, so no
// locking is needed; NewRecording takes the recorders over afterwards.
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

// Recording is an instrumented run's trace as its recorders wrote it:
// each process's events stay in the chunks they were recorded into.
// Streams reads them in place, which is all stage A needs; Trace
// assembles the contiguous Trace a tracefile writer needs, copying
// every event once.
type Recording struct {
	meta   Meta
	chunks [][][]Event // chunks[p] holds process p's chunks, in recording order
	counts []uint64    // counts[p] is process p's event count
}

// NewRecording takes over the recorders of an instrumented run, one
// per process in process order; they must record nothing more. A
// recorder stamps its own process and numbers its events, so unlike
// NewTrace there are no streams to check.
func NewRecording(app string, recs []*Recorder, aet vtime.Duration) (*Recording, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace %q: no process recorders", app)
	}
	r := &Recording{
		meta:   Meta{AppName: app, Procs: len(recs), AET: aet},
		chunks: make([][][]Event, len(recs)),
		counts: make([]uint64, len(recs)),
	}
	for p, rec := range recs {
		if rec == nil || int(rec.proc) != p {
			return nil, fmt.Errorf("trace %q: no recorder for process %d", app, p)
		}
		r.chunks[p] = append(rec.full, rec.cur)
		r.counts[p] = uint64(rec.n)
		r.meta.Events += uint64(rec.n)
	}
	return r, nil
}

// Meta returns the recording's app name, process count, event count
// and AET.
func (r *Recording) Meta() Meta { return r.meta }

// Streams returns a new reader positioned at the start of every
// process stream. It implements the logical order's EventSource, as
// RankStreams does over a tracefile.
func (r *Recording) Streams() *RecordingStreams {
	return &RecordingStreams{rec: r, cur: make([]recordingCursor, r.meta.Procs)}
}

// Trace assembles a new Trace from the recording, grouped by process
// as NewTrace groups it.
func (r *Recording) Trace() *Trace {
	t := &Trace{AppName: r.meta.AppName, Procs: r.meta.Procs, AET: r.meta.AET,
		Events: make([]Event, 0, r.meta.Events)}
	for _, chunks := range r.chunks {
		for _, c := range chunks {
			t.Events = append(t.Events, c...)
		}
	}
	return t
}

// RecordingStreams reads a Recording's process streams where they
// were recorded. Obtain one from Recording.Streams.
type RecordingStreams struct {
	rec *Recording
	cur []recordingCursor
}

// recordingCursor is one process's read position: the unread rest of
// its current chunk and the index of its next chunk.
type recordingCursor struct {
	rest []Event
	next int
}

// Meta returns the recording's header.
func (s *RecordingStreams) Meta() Meta { return s.rec.meta }

// Count returns how many events process p recorded.
func (s *RecordingStreams) Count(p int) uint64 { return s.rec.counts[p] }

// NextEvent copies process p's next event into dst; false means the
// stream is exhausted. It never fails.
func (s *RecordingStreams) NextEvent(p int, dst *Event) (bool, error) {
	c := &s.cur[p]
	for len(c.rest) == 0 {
		chunks := s.rec.chunks[p]
		if c.next == len(chunks) {
			return false, nil
		}
		c.rest = chunks[c.next]
		c.next++
	}
	*dst = c.rest[0]
	c.rest = c.rest[1:]
	return true, nil
}
