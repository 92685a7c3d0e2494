package trace

import (
	"encoding/binary"
	"fmt"

	"pas2p/internal/vtime"
)

// A Recorder packs each event into a chunk of bytes. Its first chunk
// holds firstChunk bytes; each later chunk doubles the previous one,
// up to recorderChunk. A record never straddles chunks: a new chunk
// starts once the space left could not hold a maximal record. Chunks
// are never regrown, so a recorded event stays where it was written:
// stage A reads it there (Recording.Streams), and only a tracefile
// writer rebuilds it once more into a contiguous trace
// (Recording.Trace). A short stream does not pay for a full-size
// chunk.
const (
	firstChunk    = 1 << 10
	recorderChunk = 32 << 10
)

// A packed record is what a Recorder keeps of one event: the Event
// less the four fields it derives and can rebuild exactly. Process is
// the recorder's own, Number the event's position in the stream and LT
// always NoLT. The record holds, in this order:
//
//	Kind, CollOp                    one byte each
//	Involved, Peer, Tag, RelA, RelB  zigzag varints
//	ComputeBefore                   uvarint (≥ 0 after Record's clamp)
//	Exit − Enter                    zigzag varint
//	Size                            zigzag varint
//
// Enter is the previous event's Exit (0 for the first) plus
// ComputeBefore, and Exit is Enter plus the stored service time. Both
// identities hold after Record's overlap clamp under wrapping int64
// arithmetic, so the times round-trip exactly at the extremes. As the
// Z2 codec does, a point-to-point event stores its Peer and RelA less
// its process and its RelB less the sends recorded before it (see
// bases): its peer is mostly a neighbour, and its relation names a
// send of its own or a neighbour's, numbered close to that count. So
// most fields take one byte: lu and cg classD at 128 ranks pack 13.7
// and 15.6 bytes an event, against Event's 88
// (TestRecordingBytesPerEvent). No record exceeds
// maxRecord bytes: a Peer less the process can pass int32's range, so
// only Involved and Tag count as 32-bit varints.
const maxRecord = 2 + 6*binary.MaxVarintLen64 + 2*binary.MaxVarintLen32

// Recorder accumulates the event stream of a single process during an
// instrumented run. One Recorder belongs to one rank goroutine, so no
// locking is needed; NewRecording takes the recorders over afterwards.
type Recorder struct {
	proc     int32
	full     [][]byte // filled chunks, in recording order
	cur      []byte   // the chunk being filled
	n        int
	sends    int64
	lastExit vtime.Time
}

// NewRecorder creates a recorder for one process.
func NewRecorder(proc int) *Recorder {
	return &Recorder{proc: int32(proc)}
}

// Record packs *e, written once, straight into the current chunk; *e
// itself is not modified. The caller fills the communication fields
// and physical times; the recorder derives Process, Number, LT and
// ComputeBefore, as the rebuilt Event shows them.
func (r *Recorder) Record(e *Event) {
	if cap(r.cur)-len(r.cur) < maxRecord {
		if r.cur != nil {
			r.full = append(r.full, r.cur)
		}
		r.cur = make([]byte, 0, min(max(2*cap(r.cur), firstChunk), recorderChunk))
	}
	compute, exit := e.Enter.Sub(r.lastExit), e.Exit
	if compute < 0 {
		// Overlapping nonblocking operations: project them onto a
		// sequential event stream by clamping to the previous exit,
		// where the rebuilt Enter then lies.
		compute = 0
		exit = max(exit, r.lastExit)
	}
	self, seq := bases(e.Kind, r.proc, r.sends)
	b := append(r.cur, byte(e.Kind), byte(e.CollOp))
	b = binary.AppendVarint(b, int64(e.Involved))
	b = binary.AppendVarint(b, int64(e.Peer)-self)
	b = binary.AppendVarint(b, int64(e.Tag))
	b = binary.AppendVarint(b, e.RelA-self)
	b = binary.AppendVarint(b, e.RelB-seq)
	b = binary.AppendUvarint(b, uint64(compute))
	b = binary.AppendVarint(b, int64(exit.Sub(r.lastExit.Add(compute))))
	b = binary.AppendVarint(b, e.Size)
	r.cur = b
	if e.Kind == Send {
		r.sends++
	}
	r.lastExit = exit
	r.n++
}

// bases returns what a record of kind k stores its Peer and RelA
// (self) and its RelB (seq) relative to, given its process and the
// sends it recorded before: the process and that count for a
// point-to-point event, zero for a collective (or any other kind),
// whose fields are small as they are. Arithmetic wraps, so every
// value round-trips.
func bases(k Kind, proc int32, sends int64) (self, seq int64) {
	if k == Send || k == Recv {
		return int64(proc), sends
	}
	return 0, 0
}

// chunks returns the recorder's chunks in recording order.
func (r *Recorder) chunks() [][]byte {
	return append(r.full[:len(r.full):len(r.full)], r.cur)
}

// Recording is an instrumented run's trace as its recorders wrote it:
// each process's events stay in the chunks they were recorded into.
// Streams reads them in place, which is all stage A needs; Trace
// assembles the contiguous Trace a tracefile writer needs. Both
// rebuild every Event from its packed record as they read it.
type Recording struct {
	meta   Meta
	chunks [][][]byte // chunks[p] holds process p's chunks, in recording order
	counts []uint64   // counts[p] is process p's event count
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
		chunks: make([][][]byte, len(recs)),
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
		c := recordingCursor{chunks: chunks, proc: int32(p)}
		for k := range dst[:r.counts[p]] {
			c.next(&dst[k])
		}
		dst = dst[r.counts[p]:]
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
// next event needs (its number, the sends before it and the previous
// event's exit).
type recordingCursor struct {
	rest     []byte
	chunks   [][]byte
	proc     int32
	n        int64
	sends    int64
	lastExit vtime.Time
}

// next rebuilds the process's next event into dst; false means the
// stream is exhausted and dst is untouched. It decodes the packed
// record field by field, straight into dst: assigning a composite
// literal to *dst builds the Event on the stack first, which made
// draining a recording several times slower.
func (c *recordingCursor) next(dst *Event) bool {
	for len(c.rest) == 0 {
		if len(c.chunks) == 0 {
			return false
		}
		c.rest, c.chunks = c.chunks[0], c.chunks[1:]
	}
	b := c.rest
	var v [8]uint64
	c.rest = b[uvarints(b, 2, v[:]):]
	kind := Kind(b[0])
	self, seq := bases(kind, c.proc, c.sends)
	if kind == Send {
		c.sends++
	}
	dst.Kind = kind
	dst.CollOp = int8(b[1])
	dst.Involved = int32(unzigzag(v[0]))
	dst.Peer = int32(unzigzag(v[1]) + self)
	dst.Tag = int32(unzigzag(v[2]))
	dst.RelA = unzigzag(v[3]) + self
	dst.RelB = unzigzag(v[4]) + seq
	dst.ComputeBefore = vtime.Duration(v[5])
	dst.Enter = c.lastExit.Add(dst.ComputeBefore)
	dst.Exit = dst.Enter.Add(vtime.Duration(unzigzag(v[6])))
	dst.Size = unzigzag(v[7])
	dst.Number = c.n
	dst.LT = NoLT
	dst.Process = c.proc
	c.n++
	c.lastExit = dst.Exit
	return true
}

// uvarints decodes len(v) consecutive uvarints that Record wrote from
// b[i:] into v and returns the index just past them.
func uvarints(b []byte, i int, v []uint64) int {
	for k := range v {
		x := uint64(b[i])
		i++
		if x >= 0x80 {
			x &= 0x7f
			for shift := 7; ; shift += 7 {
				c := b[i]
				i++
				x |= uint64(c&0x7f) << shift
				if c < 0x80 {
					break
				}
			}
		}
		v[k] = x
	}
	return i
}

// unzigzag inverts binary.AppendVarint's zigzag encoding.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Meta returns the recording's header.
func (s *RecordingStreams) Meta() Meta { return s.rec.meta }

// Count returns how many events process p recorded.
func (s *RecordingStreams) Count(p int) uint64 { return s.rec.counts[p] }

// NextEvent rebuilds process p's next event into dst; false means the
// stream is exhausted. It never fails.
func (s *RecordingStreams) NextEvent(p int, dst *Event) (bool, error) {
	return s.cur[p].next(dst), nil
}
