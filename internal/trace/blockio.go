package trace

// The block engine behind the v2 tracefile codec.
//
// The v2 layout (see codec.go) splits the event stream into
// independent fixed-size record blocks, each carrying its own CRC32C:
// records are exactly recordSize bytes, so every block's byte extent
// is computable up front. BlockWriter writes the blocks serially
// (Encode and EncodeWith delegate to it). Decode reads block bytes
// serially, in file order, and verifies and deserialises them on a
// pool of GOMAXPROCS workers into disjoint regions of the events
// slice, or, before that slice is reserved, packs them (packed.go);
// the whole-file CRC stays serial, a single hardware-accelerated
// crc32.Update per ~45 KiB block. VerifyStream
// (repo fsck) runs the same loop serially with decoding turned off, so
// it holds one block at a time and reports exactly Decode's errors.
// The other reader, BlockReader.RankStreams (rankio.go), reads blocks
// by rank for the out-of-core analysis.
//
// Corruption reporting does not depend on the worker count: decode
// reads block bytes in file order and resolves errors to the
// lowest-offset failure, so a corrupted or truncated file produces the
// exact error string on the serial path and on the pool (the
// determinism property tests pin this).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pas2p/internal/obs"
	"pas2p/internal/vtime"
)

// blockBytes is the byte extent of a full block's records (the block's
// on-disk size is blockBytes+4 for the trailing CRC).
const blockBytes = blockEvents * recordSize

// maxBatchBlocks bounds how many blocks a pooled Decode reads ahead
// of the deserialising workers, capping in-flight scratch memory at
// maxBatchBlocks * (blockBytes+4) ≈ 5.6 MiB.
const maxBatchBlocks = 128

// Meta is a tracefile's header: everything about the trace except the
// events themselves. The streaming readers surface it before any event
// is materialised.
type Meta struct {
	AppName string
	Procs   int
	Events  uint64
	AET     vtime.Duration
}

// CodecOptions carries the block engine's optional metrics sink. The
// zero value is what Encode and Decode use: no metrics.
type CodecOptions struct {
	// Reg, when non-nil, receives codec.* counters (blocks, bytes,
	// wall ns, CRC ns) and worker-utilization gauges.
	Reg *obs.Registry
}

// codecMetrics accumulates one operation's counters locally (atomics,
// touched by decode workers) and publishes them on completion. A nil
// *codecMetrics is the "not measuring" value and costs nothing.
type codecMetrics struct {
	reg     *obs.Registry
	op      string // "encode" or "decode"
	workers int
	start   time.Time
	blocks  atomic.Int64
	bytes   atomic.Int64
	crcNS   atomic.Int64
	busyNS  atomic.Int64
}

func newCodecMetrics(reg *obs.Registry, op string, workers int) *codecMetrics {
	if reg == nil {
		return nil
	}
	return &codecMetrics{reg: reg, op: op, workers: workers, start: time.Now()}
}

// block records one processed block's size, and the CRC time when t0
// was taken (callers skip the clock entirely on the nil path).
func (m *codecMetrics) block(n int, crcStart time.Time) {
	if m == nil {
		return
	}
	m.blocks.Add(1)
	m.bytes.Add(int64(n))
	m.crcNS.Add(time.Since(crcStart).Nanoseconds())
}

// publish flushes the counters into the registry.
func (m *codecMetrics) publish() {
	if m == nil {
		return
	}
	wall := time.Since(m.start).Nanoseconds()
	p := "codec." + m.op
	m.reg.Counter(p + ".blocks").Add(m.blocks.Load())
	m.reg.Counter(p + ".bytes").Add(m.bytes.Load())
	m.reg.Counter(p + ".crc_ns").Add(m.crcNS.Load())
	m.reg.Counter(p + ".wall_ns").Add(wall)
	m.reg.Gauge(p + ".workers").Set(float64(m.workers))
	if m.workers > 1 && wall > 0 {
		m.reg.Gauge(p + ".worker_util").Set(float64(m.busyNS.Load()) / float64(wall*int64(m.workers)))
	}
}

// encodeBlock serialises events into b (records followed by the block
// CRC) and returns the filled prefix. b must have cap >=
// len(events)*recordSize+4. Record i's ID column is first+i, its
// position in the file.
func encodeBlock(b []byte, events []Event, first int64, m *codecMetrics) []byte {
	n := len(events) * recordSize
	b = b[:n+4]
	for i := range events {
		putRecord(b[i*recordSize:], &events[i], first+int64(i))
	}
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	crc := crc32.Update(0, crcTable, b[:n])
	binary.LittleEndian.PutUint32(b[n:], crc)
	m.block(n+4, t0)
	return b
}

// BlockWriter streams a tracefile out block by block in the exact v2
// byte format. The header (including the event count) is written up
// front, so the total event count must be declared in Meta; Close
// fails if the appended events do not match it. The ID column of a
// record is its position in the file: the k-th appended event gets k.
type BlockWriter struct {
	cw      *crcWriter
	meta    Meta
	m       *codecMetrics
	scratch []byte  // block buffer
	pend    []Event // partial trailing block
	written uint64  // events appended
	emitted uint64  // events serialised
	closed  bool
}

// NewBlockWriter writes the v2 prefix (magic, header, app name, header
// CRC) and returns a writer for the event blocks.
func NewBlockWriter(w io.Writer, meta Meta, opts CodecOptions) (*BlockWriter, error) {
	if len(meta.AppName) > 0xffff {
		return nil, fmt.Errorf("trace: app name too long")
	}
	m := newCodecMetrics(opts.Reg, "encode", 1)
	cw := &crcWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if err := cw.write(magicV2[:]); err != nil {
		return nil, err
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(len(meta.AppName)))
	binary.LittleEndian.PutUint16(hdr[2:], 0) // reserved
	binary.LittleEndian.PutUint32(hdr[4:], uint32(meta.Procs))
	binary.LittleEndian.PutUint64(hdr[8:], meta.Events)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(meta.AET))
	if err := cw.write(hdr[:]); err != nil {
		return nil, err
	}
	if err := cw.write([]byte(meta.AppName)); err != nil {
		return nil, err
	}
	// The header CRC covers every byte written so far.
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], cw.crc)
	if err := cw.write(u32[:]); err != nil {
		return nil, err
	}
	return &BlockWriter{cw: cw, meta: meta, m: m, scratch: make([]byte, 0, blockBytes+4)}, nil
}

// emit serialises and writes one complete block (the trace's final
// block may be short).
func (bw *BlockWriter) emit(events []Event) error {
	bw.scratch = encodeBlock(bw.scratch[:0], events, int64(bw.emitted), bw.m)
	bw.emitted += uint64(len(events))
	return bw.cw.write(bw.scratch)
}

// Append adds events to the stream. Full blocks are written before
// Append returns and the remainder is copied into the writer, so no
// event is retained after Append returns: the caller may reuse the
// slice at once.
func (bw *BlockWriter) Append(events []Event) error {
	bw.written += uint64(len(events))
	if bw.written > bw.meta.Events {
		return fmt.Errorf("trace: block writer: %d events appended, header declared %d", bw.written, bw.meta.Events)
	}
	if len(bw.pend) > 0 {
		take := blockEvents - len(bw.pend)
		if take > len(events) {
			take = len(events)
		}
		bw.pend = append(bw.pend, events[:take]...)
		events = events[take:]
		if len(bw.pend) < blockEvents {
			return nil
		}
		if err := bw.emit(bw.pend); err != nil {
			return err
		}
		bw.pend = bw.pend[:0]
	}
	for len(events) >= blockEvents {
		if err := bw.emit(events[:blockEvents]); err != nil {
			return err
		}
		events = events[blockEvents:]
	}
	if len(events) > 0 {
		if bw.pend == nil {
			bw.pend = make([]Event, 0, blockEvents)
		}
		bw.pend = append(bw.pend, events...)
	}
	return nil
}

// Close flushes the trailing partial block, the trailer and the
// whole-file CRC. It fails if fewer events were appended than the
// header declared.
func (bw *BlockWriter) Close() error {
	if bw.closed {
		return nil
	}
	bw.closed = true
	var err error
	if bw.written != bw.meta.Events {
		err = fmt.Errorf("trace: block writer: %d events appended, header declared %d", bw.written, bw.meta.Events)
	}
	if err == nil && len(bw.pend) > 0 {
		err = bw.emit(bw.pend)
		bw.pend = nil
	}
	if err != nil {
		return err
	}
	if err := bw.cw.write(trailer[:]); err != nil {
		return err
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], bw.cw.crc)
	if err := bw.cw.write(u32[:]); err != nil {
		return err
	}
	if err := bw.cw.w.Flush(); err != nil {
		return err
	}
	bw.m.publish()
	return nil
}

// EncodeWith writes the current (v2, checksummed) binary tracefile
// format through the block engine, publishing codec.encode.* metrics
// to opts.Reg when it is set. It is BlockWriter fed the whole trace at
// once, so the ID column of each record is its position in the file.
func EncodeWith(w io.Writer, t *Trace, opts CodecOptions) error {
	bw, err := NewBlockWriter(w, t.Meta(), opts)
	if err != nil {
		return err
	}
	if err := bw.Append(t.Events); err != nil {
		return err
	}
	return bw.Close()
}

// ---------------------------------------------------------------------
// Decode side.

// blockExtent describes one block's position in the file and the event
// index range it covers.
type blockExtent struct {
	start, end uint64 // event indices [start, end)
	off        int64  // byte offset of the block's first record
}

// readBlock reads one block's bytes (records + CRC) into buf through
// the offset/CRC-tracking reader, reproducing the serial codec's
// truncation errors: the failing unit (a specific record, or the block
// checksum) and the byte offset are recovered from the partial length.
func readBlock(cr *crcReader, buf []byte, ext blockExtent, total uint64) error {
	err := cr.readFull(buf)
	if err == nil {
		return nil
	}
	n := cr.off - ext.off // bytes of this block actually consumed
	recBytes := int64(ext.end-ext.start) * recordSize
	unitPartial := n % recordSize
	failing := ext.start + uint64(n)/uint64(recordSize)
	if n >= recBytes {
		unitPartial = n - recBytes
	}
	// io.ReadFull reported on the whole chunk; re-map EOF flavours to
	// the failing unit the serial record-at-a-time reader would have
	// seen. Non-EOF reader errors pass through untouched.
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		if unitPartial == 0 {
			err = io.EOF
		} else {
			err = io.ErrUnexpectedEOF
		}
	}
	if n >= recBytes {
		return corruptf(cr.off, "reading block checksum: %v", err)
	}
	return corruptf(cr.off, "reading event %d of %d: %v", failing, total, err)
}

// verifyBlock checks a block's CRC.
func verifyBlock(buf []byte, ext blockExtent, m *codecMetrics) error {
	recBytes := int(ext.end-ext.start) * recordSize
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	bcrc := crc32.Update(0, crcTable, buf[:recBytes])
	m.block(recBytes+4, t0)
	if got := binary.LittleEndian.Uint32(buf[recBytes:]); got != bcrc {
		return corruptf(ext.off,
			"event block %d-%d checksum mismatch (stored %08x, computed %08x)",
			ext.start, ext.end-1, got, bcrc)
	}
	return nil
}

// decodeRecords deserialises a verified block's records into dst (dst[i]
// receives record i).
func decodeRecords(buf []byte, dst []Event) {
	for i := range dst {
		getRecord(buf[i*recordSize:], &dst[i])
	}
}

// decJob carries one read block to the decode workers. The job owns
// its buffers for life, so a recycled job allocates nothing.
type decJob struct {
	buf    []byte // the block's records, then its CRC
	packed []byte // the records packed, when they are not decoded
	ext    blockExtent
}

var decJobPool = sync.Pool{New: func() any {
	return &decJob{buf: make([]byte, 0, blockBytes+4)}
}}

// decTask is one unit of a pooled decode's work. With job set, the
// worker verifies the block read and deserialises it into dst or, with
// dst nil, packs it into job.packed; with job nil, it unpacks packed
// into dst.
type decTask struct {
	job    *decJob
	packed []byte
	dst    []Event
}

// decEngine fans the block work out. Destination regions are disjoint
// slices of the final events array, so workers never contend; errors
// are resolved to the lowest block start, which is exactly the error
// the serial path reports first.
type decEngine struct {
	tasks chan decTask
	wg    sync.WaitGroup // the tasks run and not yet done
	m     *codecMetrics

	errMu    sync.Mutex
	errStart uint64
	err      error
}

func newDecEngine(workers int, m *codecMetrics) *decEngine {
	e := &decEngine{tasks: make(chan decTask, maxBatchBlocks), m: m}
	for w := 0; w < workers; w++ {
		go e.worker()
	}
	return e
}

// run hands t to a worker; wg.Wait returns once it is done.
func (e *decEngine) run(t decTask) {
	e.wg.Add(1)
	e.tasks <- t
}

func (e *decEngine) worker() {
	var busy time.Duration
	for t := range e.tasks {
		var t0 time.Time
		if e.m != nil {
			t0 = time.Now()
		}
		if j := t.job; j == nil {
			unpackRecords(t.packed, t.dst)
		} else if err := verifyBlock(j.buf, j.ext, e.m); err != nil {
			e.record(j.ext.start, err)
		} else if t.dst != nil {
			decodeRecords(j.buf, t.dst)
		} else {
			if j.packed == nil {
				j.packed = make([]byte, 0, blockEvents*packGuess)
			}
			j.packed = packRecords(j.packed[:0], j.buf, int(j.ext.end-j.ext.start))
		}
		if e.m != nil {
			busy += time.Since(t0)
		}
		e.wg.Done()
	}
	if e.m != nil {
		e.m.busyNS.Add(busy.Nanoseconds())
	}
}

// record keeps the error of the lowest-starting failed block.
func (e *decEngine) record(start uint64, err error) {
	e.errMu.Lock()
	if e.err == nil || start < e.errStart {
		e.err, e.errStart = err, start
	}
	e.errMu.Unlock()
}

// firstError returns the winning error and its block-start index.
func (e *decEngine) firstError() (uint64, error) {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.errStart, e.err
}

// DecodeWith reads the binary tracefile format, publishing
// codec.decode.* metrics to opts.Reg when it is set. Blocks are
// verified and deserialised on GOMAXPROCS workers.
func DecodeWith(r io.Reader, opts CodecOptions) (*Trace, error) {
	return decode(r, opts, runtime.GOMAXPROCS(0))
}

// decode is DecodeWith on the given number of workers. Results —
// including every corruption error's text and offset — are identical
// at every worker count; traces under four blocks always take the
// serial path, where pool spin-up would cost more than it saves.
func decode(r io.Reader, opts CodecOptions, workers int) (*Trace, error) {
	meta, events, err := readBlocks(r, opts, workers, true)
	if err != nil {
		return nil, err
	}
	return &Trace{AppName: meta.AppName, Procs: meta.Procs, AET: meta.AET, Events: events}, nil
}

// VerifyStream reads a binary tracefile to the end, verifying every
// checksum (header, per-block, whole-file) without decoding a single
// event, and returns the header metadata. It is Decode's serial block
// loop with decoding turned off, so it holds one block at a time and a
// damaged file fails with exactly the error text and offset Decode
// reports. This is what `repo fsck` runs over stored tracefiles.
func VerifyStream(r io.Reader) (Meta, error) {
	meta, _, err := readBlocks(r, CodecOptions{}, 1, false)
	return meta, err
}

// readBlocks reads the prefix, every block and the trailer. With
// decodeEvents it deserialises the blocks, on workers goroutines, into
// the returned events; without, it only verifies them on the serial
// path and returns no events.
func readBlocks(r io.Reader, opts CodecOptions, workers int, decodeEvents bool) (Meta, []Event, error) {
	cr := &crcReader{br: bufio.NewReaderSize(r, 1<<16)}
	meta, err := readPrefix(cr)
	if err != nil {
		return meta, nil, err
	}
	count := meta.Events
	if count < 4*blockEvents || !decodeEvents {
		workers = 1
	}
	m := newCodecMetrics(opts.Reg, "decode", workers)

	var eng *decEngine
	if workers > 1 {
		eng = newDecEngine(workers, m)
		defer close(eng.tasks)
	}
	serialBuf := []byte(nil)
	if eng == nil && count > 0 {
		serialBuf = make([]byte, 0, blockBytes+4)
	}

	// Blocks are consumed in batches: bytes are read serially in file
	// order (accumulating the whole-file CRC and error offsets), then
	// verified concurrently. The events slice is reserved only once
	// eventReservation allows the exact count; the blocks that verify
	// before then are packed (packed.go), each reservation of them
	// bounding what the store makes room for. The final reservation
	// unpacks them straight into the slice, and every later block is
	// deserialised into region, the slice's unfilled rest.
	var (
		events  []Event
		region  []Event
		segs    [8][]byte // packed's first segments, on the stack
		packed  = packedBlocks{segs: segs[:0]}
		packEnd uint64 // the end of the events reserved for packing
		held    [maxBatchBlocks]*decJob
	)
	if decodeEvents && count == 0 {
		events = []Event{}
	}
	for next := uint64(0); next < count; {
		pack := decodeEvents && events == nil
		if pack && next == packEnd {
			n, final := eventReservation(next, count)
			if final {
				events = make([]Event, n)
				packed.unpack(events, eng)
				packed = packedBlocks{}
				region, pack = events[next:], false
			} else {
				packed.left, packEnd = n, next+n
			}
		}
		batch := min(count-next, maxBatchBlocks*blockEvents)
		if pack {
			batch = min(batch, packEnd-next)
		}

		var readErr error
		readErrStart := uint64(0)
		nheld := 0
		for bs := next; bs < next+batch; bs += blockEvents {
			be := min(bs+blockEvents, next+batch)
			ext := blockExtent{start: bs, end: be, off: cr.off}
			n := int(be-bs)*recordSize + 4
			var dst []Event
			if region != nil {
				dst = region[bs-next : be-next]
			}
			if eng != nil {
				j := decJobPool.Get().(*decJob)
				if cap(j.buf) < n {
					j.buf = make([]byte, 0, blockBytes+4)
				}
				j.buf, j.ext = j.buf[:n], ext
				held[nheld] = j
				nheld++
				if err := readBlock(cr, j.buf, ext, count); err != nil {
					readErr, readErrStart = err, bs
					break
				}
				eng.run(decTask{job: j, dst: dst})
				continue
			}
			serialBuf = serialBuf[:n]
			if err := readBlock(cr, serialBuf, ext, count); err != nil {
				readErr, readErrStart = err, bs
				break
			}
			if err := verifyBlock(serialBuf, ext, m); err != nil {
				readErr, readErrStart = err, bs
				break
			}
			if pack {
				packed.pack(serialBuf, int(be-bs))
			} else {
				decodeRecords(serialBuf, dst)
			}
		}
		if eng != nil {
			eng.wg.Wait()
			if start, err := eng.firstError(); err != nil && (readErr == nil || start < readErrStart) {
				readErr = err
			}
			for i, j := range held[:nheld] {
				if pack && readErr == nil {
					packed.add(j.packed, int(j.ext.end-j.ext.start))
				}
				decJobPool.Put(j)
				held[i] = nil
			}
		}
		if readErr != nil {
			return meta, nil, readErr
		}
		if region != nil {
			region = region[batch:]
		}
		next += batch
	}

	if err := readTrailer(cr); err != nil {
		return meta, nil, err
	}
	m.publish()
	return meta, events, nil
}
