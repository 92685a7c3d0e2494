package trace

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"pas2p/internal/vtime"
)

// A Recorder packs each event into a chunk of bytes. Its first chunk
// holds firstChunk bytes; each later chunk doubles the previous one,
// up to recorderChunk. A record never straddles chunks: a new chunk
// starts once the space left could not hold a maximal record. Chunks
// are never regrown, so a recorded event stays where it was written,
// and stage A reads it there. A short stream does not pay for a
// full-size chunk.
//
// A recorder publishes each chunk it fills to its recording, where a
// Drain reader may read it while the run goes on and give it back for
// reuse. It also seals a chunk a quarter full or more early, once the
// reader waits on its process, so the reader does not stall on the
// rest of the chunk while the other processes record on. The cap
// bounds what a recording holds: what the reader has not read yet is
// mostly a chunk or two a process, the one it reads and those sealed
// behind it, so a smaller cap holds less. Replaying the order the merge pulls events
// in against the order lu classD at 128 ranks records them, the bytes
// held peaked at 12.5 MB with a 32 KiB cap, 3.1 MB at 8 KiB and 1.9 MB
// at 4 KiB, of 27.5 MB recorded (DESIGN §5j).
const (
	firstChunk    = 1 << 10
	recorderChunk = 8 << 10
)

// heldChunks bounds what a live recording holds for its reader: while
// a Drain reads it, a recorder that would take the chunks published and
// not yet read past heldChunks full-size chunks a process waits for
// the reader to read some first. That leaves room for the chunk the
// reader is on and the two or three sealed behind it, which is what a
// reader that keeps up holds; the bound binds when the run records
// faster than the reader reads.
const heldChunks = 4

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
// arithmetic, so the times round-trip exactly at the extremes. A
// point-to-point event stores its Peer and RelA less its process and
// its RelB less the sends recorded before it (see bases): its peer is mostly a neighbour, and its relation names a
// send of its own or a neighbour's, numbered close to that count. So
// most fields take one byte: lu and cg classD at 128 ranks pack 13.7
// and 15.6 bytes an event, against Event's 88
// (TestRecordingBytesPerEvent). No record exceeds
// maxRecord bytes: a Peer less the process can pass int32's range, so
// only Involved and Tag count as 32-bit varints.
const maxRecord = 2 + 6*binary.MaxVarintLen64 + 2*binary.MaxVarintLen32

// Recorder accumulates the event stream of a single process during an
// instrumented run. One Recorder belongs to one rank, so recording
// needs no lock; only handing a filled chunk to the recording takes
// the recording's.
type Recorder struct {
	proc     int32
	out      *Recording // the recording it publishes to; nil once ended
	cur      []byte     // the chunk being filled
	n        int
	sends    int64
	lastExit vtime.Time
}

// Record packs *e, written once, straight into the current chunk; *e
// itself is not modified. The caller fills the communication fields
// and physical times; the recorder derives Process, Number, LT and
// ComputeBefore, as the rebuilt Event shows them. A recorder waits for
// the reader only when a chunk it seals would take a live recording
// past its held-bytes bound (heldChunks), and so does End.
func (r *Recorder) Record(e *Event) {
	if cap(r.cur)-len(r.cur) < maxRecord {
		r.cur = r.newChunk()
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
	if len(b) >= recorderChunk/4 && r.out.waitFor.Load() == r.proc {
		r.cur = r.newChunk()
	}
}

// newChunk seals the current chunk, if any, and returns the next one,
// twice its size up to recorderChunk. It publishes the sealed chunk
// and takes a full-size one from the recording's free list when it
// can.
func (r *Recorder) newChunk() []byte {
	size := min(max(2*cap(r.cur), firstChunk), recorderChunk)
	if r.cur != nil {
		if c := r.out.publish(r.proc, r.cur, size); c != nil {
			return c
		}
	}
	return make([]byte, 0, size)
}

// End ends the process's stream: it publishes the last chunk, so a
// reader at the end of the stream learns that it ended without
// waiting for the run to close the recording. The recorder must
// record nothing more. End does nothing to an ended recorder.
func (r *Recorder) End() {
	if out := r.out; out != nil {
		out.mu.Lock()
		defer out.mu.Unlock()
		out.end(r)
	}
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

// Recording is an instrumented run's trace as its recorders wrote it:
// each process's events stay in the chunks they were recorded into,
// and every Event is rebuilt from its packed record as it is read.
//
// While the run goes on, its recorders publish each chunk they fill,
// and a Drain reader reads the streams from those chunks, handing
// each one back for the recorders to fill again. So a traced run
// holds only what the reader has not read yet, and a recorder that
// would take that past the recording's bound waits for the reader,
// unless the reader itself waits for a chunk. Close ends the
// recording on every exit path of the run. A recording is read once:
// by a Drain reader, while the run goes on or after it, or by Trace,
// which drains a closed recording into the contiguous Trace a
// tracefile writer needs.
type Recording struct {
	recs []*Recorder // the recorders, until Close

	mu     sync.Mutex
	ready  sync.Cond  // the reader waits on it for waitFor's next chunk or the close
	room   sync.Cond  // a recorder waits on it for held to fall below limit
	meta   Meta       // Events and AET are fixed by Close
	queued [][][]byte // queued[p]: process p's published chunks, not yet read
	ended  []bool     // ended[p]: process p's recorder has published its last chunk
	open   int        // streams not yet ended
	// free holds full-size chunks the reader gave back; recorders take
	// them before making new ones.
	free    [][]byte
	waitFor atomic.Int32 // the process the reader waits on, or -1
	closed  bool
	drained bool // Drain was called
	discard bool // the reader stopped: chunks are recycled unread
	// held is the bytes of published chunks not yet given back, peak
	// its maximum, and limit the most a live drain lets it reach
	// (heldChunks full-size chunks a process); made and reused count
	// the full-size chunks the recorders made and took from free.
	held, peak, limit int
	made, reused      int
}

// StartRecording opens the recording of an instrumented run of procs
// processes (procs > 0): Recorder(p) hands out each process's
// recorder, and the run must Close the recording however it ends.
func StartRecording(app string, procs int) *Recording {
	r := &Recording{
		recs:   make([]*Recorder, procs),
		meta:   Meta{AppName: app, Procs: procs},
		queued: make([][][]byte, procs),
		ended:  make([]bool, procs),
		open:   procs,
		limit:  procs * heldChunks * recorderChunk,
	}
	for p := range r.recs {
		r.recs[p] = &Recorder{proc: int32(p), out: r}
	}
	r.waitFor.Store(-1)
	r.ready.L = &r.mu
	r.room.L = &r.mu
	return r
}

// Recorder returns process p's recorder.
func (r *Recording) Recorder(p int) *Recorder { return r.recs[p] }

// publish queues process p's sealed chunk c, once there is room for
// it (makeRoom), and returns a recycled chunk of the given size, or
// nil when the recorder must make one.
func (r *Recording) publish(p int32, c []byte, size int) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.makeRoom(cap(c))
	if r.discard {
		r.recycle(c)
	} else {
		r.queued[p] = append(r.queued[p], c)
		r.held += cap(c)
		r.peak = max(r.peak, r.held)
		r.wake(p)
	}
	if size != recorderChunk {
		return nil
	}
	if n := len(r.free); n > 0 {
		c = r.free[n-1]
		r.free = r.free[:n-1]
		r.reused++
		return c
	}
	r.made++
	return nil
}

// makeRoom waits until n more bytes fit under the limit on what the
// recording holds, while a drain reads it and is not itself waiting for
// a chunk, which only a recorder can publish: the reader gives chunks
// back, or stops, or waits, and each wakes the recorder. The caller
// holds mu.
func (r *Recording) makeRoom(n int) {
	for r.held+n > r.limit && r.drained && !r.discard && !r.closed && r.waitFor.Load() == -1 {
		r.room.Wait()
	}
}

// recycle puts a full-size chunk on the free list while recorders can
// still take it. The caller holds mu.
func (r *Recording) recycle(c []byte) {
	if !r.closed && cap(c) == recorderChunk {
		r.free = append(r.free, c[:0])
	}
}

// end publishes rec's last chunk, once there is room for it, and
// ends its stream. The caller holds mu.
func (r *Recording) end(rec *Recorder) {
	p := rec.proc
	if len(rec.cur) > 0 {
		r.makeRoom(cap(rec.cur))
	}
	if len(rec.cur) > 0 && !r.discard {
		r.queued[p] = append(r.queued[p], rec.cur)
		r.held += cap(rec.cur)
		r.peak = max(r.peak, r.held)
	}
	rec.cur, rec.out = nil, nil
	r.ended[p] = true
	r.open--
	r.wake(p)
}

// wake wakes the reader if it waits for process p, and from then on
// counts it as not waiting: p's next chunk or end is there, so a
// recorder past the bound waits for the reader again, also before the
// reader has run. The caller holds mu.
func (r *Recording) wake(p int32) {
	if r.waitFor.Load() == p {
		r.waitFor.Store(-1)
		r.ready.Signal()
	}
}

// Close ends the recording, whether the run finished, failed or
// stopped early: it ends every stream not yet ended (End) and fixes
// Meta's event count and the AET (zero for a failed run). The
// recorders must record nothing more.
func (r *Recording) Close(aet vtime.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for p, rec := range r.recs {
		if !r.ended[p] {
			r.end(rec)
		}
		r.meta.Events += uint64(rec.n)
	}
	r.meta.AET = aet
	r.recs, r.free = nil, nil
	r.closed = true
	r.ready.Broadcast()
	r.room.Broadcast()
}

// Meta returns the recording's app name, process count, event count
// and AET. Until the recording closes, its event count and AET are
// zero.
func (r *Recording) Meta() Meta {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.meta
}

// Trace drains a closed recording into a new Trace, grouped by process
// as NewTrace groups it, dropping each chunk once it is read. Like
// Drain, it reads the recording once: neither may be called after it.
func (r *Recording) Trace() *Trace {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if !closed {
		panic("trace: assembling an open recording")
	}
	d := r.Drain()
	t := &Trace{AppName: r.meta.AppName, Procs: r.meta.Procs, AET: r.meta.AET,
		Events: make([]Event, r.meta.Events)}
	k := 0
	for p := range t.Procs {
		for k < len(t.Events) {
			if ok, _ := d.NextEvent(p, &t.Events[k]); !ok {
				break
			}
			k++
		}
	}
	return t
}

// Drain returns the recording's one-shot reader, which reads a live
// recording while the run writes it, or a closed one. It may be
// called once, and not after Trace. A reader that gives up before
// every stream has ended must Stop, or the run waits for it at the
// held-bytes bound.
func (r *Recording) Drain() *RecordingDrain {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.drained {
		panic("trace: recording read twice")
	}
	r.drained = true
	d := &RecordingDrain{rec: r, cur: make([]recordingCursor, len(r.queued)),
		chunk: make([][]byte, len(r.queued))}
	for p := range d.cur {
		d.cur[p].proc = int32(p)
	}
	return d
}

// RecordingDrain reads a Recording's process streams once, as the
// recorders publish them: a read that reaches the end of the chunks
// published so far waits for the process's next chunk, or for the end
// of its stream, and each chunk read is given back to the recorders. It
// implements the logical order's EventSource; its Meta is final once
// every stream has ended. Obtain one from Recording.Drain.
type RecordingDrain struct {
	rec    *Recording
	cur    []recordingCursor
	chunk  [][]byte // chunk[p] is the chunk cur[p] reads
	waited time.Duration
}

// recordingCursor is one process's read position: the unread rest of
// its current chunk, and what rebuilding its next event needs (its
// number, the sends before it and the previous event's exit).
type recordingCursor struct {
	rest     []byte
	proc     int32
	n        int64
	sends    int64
	lastExit vtime.Time
}

// next rebuilds the next event of the current chunk into dst; false
// means the chunk is spent and dst is untouched. A published chunk
// holds at least one record. It decodes the packed record field by
// field, straight into dst: assigning a composite literal to *dst
// builds the Event on the stack first, which made draining a
// recording several times slower.
func (c *recordingCursor) next(dst *Event) bool {
	if len(c.rest) == 0 {
		return false
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

// Meta returns the recording's header. While a stream is open, its
// event count and AET are zero; once every stream has ended, Meta
// waits the moment until the run closes the recording and returns the
// final header.
func (s *RecordingDrain) Meta() Meta {
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.open == 0 && !r.closed {
		t0 := time.Now()
		for !r.closed {
			r.ready.Wait()
		}
		s.waited += time.Since(t0)
	}
	return r.meta
}

// NextEvent rebuilds process p's next event into dst, first waiting
// for p's next published chunk when the one it reads is spent; false
// means the stream has ended. It never fails.
func (s *RecordingDrain) NextEvent(p int, dst *Event) (bool, error) {
	c := &s.cur[p]
	if len(c.rest) == 0 {
		s.chunk[p] = s.rec.take(p, s.chunk[p], &s.waited)
		c.rest = s.chunk[p]
	}
	return c.next(dst), nil
}

// Waited returns how long the reader has waited for the run to
// publish chunks.
func (s *RecordingDrain) Waited() time.Duration { return s.waited }

// Stop ends the reading early: the chunks not yet read are dropped,
// and those the run fills from now on go straight back to its
// recorders, so a run whose analysis failed holds no more than its
// unsealed chunks while it finishes.
func (s *RecordingDrain) Stop() {
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	r.discard = true
	for p, q := range r.queued {
		for _, c := range q {
			r.recycle(c)
		}
		r.queued[p] = nil
	}
	r.held = 0
	r.room.Broadcast()
}

// take gives back spent, process p's chunk just read (nil at the
// start), and returns p's next published chunk, waiting for it if
// need be and adding the wait to *waited; nil means p's stream has
// ended. Giving a chunk back, and waiting, each wake a recorder that
// waits for room.
func (r *Recording) take(p int, spent []byte, waited *time.Duration) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if spent != nil {
		r.held -= cap(spent)
		r.recycle(spent)
		r.room.Broadcast()
	}
	if len(r.queued[p]) == 0 && !r.ended[p] {
		t0 := time.Now()
		r.waitFor.Store(int32(p))
		r.room.Broadcast()
		for len(r.queued[p]) == 0 && !r.ended[p] {
			r.ready.Wait()
		}
		r.waitFor.Store(-1)
		*waited += time.Since(t0)
	}
	q := r.queued[p]
	if len(q) == 0 {
		return nil
	}
	c := q[0]
	q[0] = nil
	r.queued[p] = q[1:]
	return c
}
