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

// storedEvent is what a Recorder keeps of one event: the Event less
// the four fields it derives and can rebuild exactly. Process is the
// recorder's own, Number the event's position in the stream, LT
// always NoLT, and Enter the previous event's Exit (0 for the first)
// plus ComputeBefore. That last identity holds after Record's overlap
// clamp, under wrapping int64 arithmetic. The fields keep Event's
// widest-first order, so the struct is 56 bytes against Event's 88
// (TestStoredEventSize).
type storedEvent struct {
	Size          int64
	Exit          vtime.Time
	RelA, RelB    int64
	ComputeBefore vtime.Duration
	Involved      int32
	Peer          int32
	Tag           int32
	Kind          Kind
	CollOp        int8
}

// Recorder accumulates the event stream of a single process during an
// instrumented run. One Recorder belongs to one rank goroutine, so no
// locking is needed; NewRecording takes the recorders over afterwards.
type Recorder struct {
	proc     int32
	full     [][]storedEvent // filled chunks, in recording order
	cur      []storedEvent   // the chunk being filled
	n        int
	lastExit vtime.Time
}

// NewRecorder creates a recorder for one process.
func NewRecorder(proc int) *Recorder {
	return &Recorder{proc: int32(proc)}
}

// Record stores *e, written once, straight into the current chunk;
// *e itself is not modified. The caller fills the communication
// fields and physical times; the recorder derives Process, Number, LT
// and ComputeBefore, as the rebuilt Event shows them.
func (r *Recorder) Record(e *Event) {
	if len(r.cur) == cap(r.cur) {
		if r.cur != nil {
			r.full = append(r.full, r.cur)
		}
		r.cur = make([]storedEvent, 0, min(max(2*cap(r.cur), firstChunk), recorderChunk))
	}
	compute, exit := e.Enter.Sub(r.lastExit), e.Exit
	if compute < 0 {
		// Overlapping nonblocking operations: project them onto a
		// sequential event stream by clamping to the previous exit,
		// where the rebuilt Enter then lies.
		compute = 0
		exit = max(exit, r.lastExit)
	}
	r.cur = r.cur[:len(r.cur)+1]
	s := &r.cur[len(r.cur)-1]
	s.Size = e.Size
	s.Exit = exit
	s.RelA = e.RelA
	s.RelB = e.RelB
	s.ComputeBefore = compute
	s.Involved = e.Involved
	s.Peer = e.Peer
	s.Tag = e.Tag
	s.Kind = e.Kind
	s.CollOp = e.CollOp
	r.lastExit = exit
	r.n++
}

// chunks returns the recorder's chunks in recording order.
func (r *Recorder) chunks() [][]storedEvent {
	return append(r.full[:len(r.full):len(r.full)], r.cur)
}

// Recording is an instrumented run's trace as its recorders wrote it:
// each process's events stay in the chunks they were recorded into.
// Streams reads them in place, which is all stage A needs; Trace
// assembles the contiguous Trace a tracefile writer needs. Both
// rebuild every Event from its stored form as they read it.
type Recording struct {
	meta   Meta
	chunks [][][]storedEvent // chunks[p] holds process p's chunks, in recording order
	counts []uint64          // counts[p] is process p's event count
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
		chunks: make([][][]storedEvent, len(recs)),
		counts: make([]uint64, len(recs)),
	}
	for p, rec := range recs {
		if rec == nil || int(rec.proc) != p {
			return nil, fmt.Errorf("trace %q: no recorder for process %d", app, p)
		}
		r.chunks[p] = rec.chunks()
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
	s := &RecordingStreams{rec: r, cur: make([]recordingCursor, r.meta.Procs)}
	for p := range s.cur {
		s.cur[p] = recordingCursor{chunks: r.chunks[p], proc: int32(p)}
	}
	return s
}

// Trace assembles a new Trace from the recording, grouped by process
// as NewTrace groups it.
func (r *Recording) Trace() *Trace {
	t := &Trace{AppName: r.meta.AppName, Procs: r.meta.Procs, AET: r.meta.AET,
		Events: make([]Event, r.meta.Events)}
	dst := t.Events
	for p, chunks := range r.chunks {
		var number int64
		var lastExit vtime.Time
		for _, c := range chunks {
			for k := range c {
				c[k].rebuild(&dst[k], int32(p), number, lastExit)
				number++
				lastExit = c[k].Exit
			}
			dst = dst[len(c):]
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
// its current chunk, its chunks after that, and what rebuilding its
// next event needs (its number and the previous event's exit).
type recordingCursor struct {
	rest     []storedEvent
	chunks   [][]storedEvent
	proc     int32
	n        int64
	lastExit vtime.Time
}

// next rebuilds the process's next event into dst; false means the
// stream is exhausted and dst is untouched.
func (c *recordingCursor) next(dst *Event) bool {
	for len(c.rest) == 0 {
		if len(c.chunks) == 0 {
			return false
		}
		c.rest, c.chunks = c.chunks[0], c.chunks[1:]
	}
	s := &c.rest[0]
	c.rest = c.rest[1:]
	s.rebuild(dst, c.proc, c.n, c.lastExit)
	c.n++
	c.lastExit = s.Exit
	return true
}

// rebuild writes the Event s stores into dst, given the recorder's
// process, the event's number and the previous event's exit. Fields
// are stored one by one: assigning a composite literal to *dst builds
// the Event on the stack first, which made draining a recording
// several times slower.
func (s *storedEvent) rebuild(dst *Event, proc int32, number int64, prevExit vtime.Time) {
	dst.Number = number
	dst.Size = s.Size
	dst.Enter = prevExit.Add(s.ComputeBefore)
	dst.Exit = s.Exit
	dst.LT = NoLT
	dst.RelA = s.RelA
	dst.RelB = s.RelB
	dst.ComputeBefore = s.ComputeBefore
	dst.Process = proc
	dst.Involved = s.Involved
	dst.Peer = s.Peer
	dst.Tag = s.Tag
	dst.Kind = s.Kind
	dst.CollOp = s.CollOp
}

// Meta returns the recording's header.
func (s *RecordingStreams) Meta() Meta { return s.rec.meta }

// Count returns how many events process p recorded.
func (s *RecordingStreams) Count(p int) uint64 { return s.rec.counts[p] }

// NextEvent rebuilds process p's next event into dst; false means the
// stream is exhausted. It never fails.
func (s *RecordingStreams) NextEvent(p int, dst *Event) (bool, error) {
	return s.cur[p].next(dst), nil
}
