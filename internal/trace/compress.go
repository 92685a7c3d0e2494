package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"

	"pas2p/internal/vtime"
)

// Compressed tracefile format. The paper cites tracefile size as the
// scalability problem of trace-based analysis (§2, Noeth et al. [20],
// ScalaTrace); this codec exploits exactly the property PAS2P itself
// relies on — repetitive communication structure — to shrink
// tracefiles losslessly:
//
//   - each event's structural fields (kind, collective op, peer offset,
//     tag, size, involved count) collapse into a dictionary of
//     templates; iterative applications have very few distinct ones;
//   - the per-rank template-id sequence is run-length encoded over
//     tandem block repeats (loops compress to one block + a count);
//   - times are stored as varint deltas (inter-event gap and service
//     time), which are small and repetitive;
//   - relations are stored as varint deltas against their expected
//     progression (per-channel send counters).
//
// The container (Z2, magic PAS2PTZ2) writes every section's byte
// length between the template dictionary and the section bodies, giving
// readers random access: sections load as independent byte ranges and
// decode on a pool of GOMAXPROCS workers, as they encode on one.
// Sections are process-independent, so the archive bytes and the
// decoded trace are the same at every worker count. The index-less
// PAS2PTZ1 layout is retired and rejected with ErrRetiredFormat.
//
// Decompression reproduces the trace bit-for-bit. Like the in-memory
// trace, the archive stores no event ID.

var magicZ2 = [8]byte{'P', 'A', 'S', '2', 'P', 'T', 'Z', '2'}

// template is the structural part of an event.
type template struct {
	kind     Kind
	involved int32
	collOp   int8
	peerOff  int32 // peer - process; peerNone for collectives
	tag      int32
	size     int64
}

const peerNone = int32(-1 << 20)

// maxRepeatBlock is the largest tandem-repeat block length the loop
// detector searches.
const maxRepeatBlock = 64

// maxSectionBytes bounds a single per-process section in the Z2 index;
// anything larger than the flat encoding of the whole-file event cap
// is corruption, not data.
const maxSectionBytes = uint64(1) << 43

func templateOf(e *Event) template {
	off := peerNone
	if e.Peer >= 0 {
		off = e.Peer - e.Process
	}
	return template{kind: e.Kind, involved: e.Involved, collOp: e.CollOp,
		peerOff: off, tag: e.Tag, size: e.Size}
}

// Compress writes the compressed tracefile format (Z2, indexed).
// Per-process work (template scans, loop detection, varint encoding)
// fans out over GOMAXPROCS workers.
func Compress(w io.Writer, t *Trace) error {
	return compress(w, t, runtime.GOMAXPROCS(0))
}

// compress is Compress on the given number of workers. Sections are
// concatenated in process order, so the bytes match the serial
// encoder's exactly; traces under four blocks' worth of events always
// take the serial path.
func compress(w io.Writer, t *Trace, workers int) error {
	per := t.PerProcess()
	if workers > len(per) {
		workers = len(per)
	}
	if len(t.Events) < 4*blockEvents {
		workers = 1
	}

	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magicZ2[:]); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUv := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putV := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}

	if err := putUv(uint64(len(t.AppName))); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.AppName); err != nil {
		return err
	}
	if err := putUv(uint64(t.Procs)); err != nil {
		return err
	}
	if err := putUv(uint64(t.AET)); err != nil {
		return err
	}

	// Global template dictionary in first-seen order. The serial scan
	// walks process 0 to completion before process 1, so per-process
	// first-seen lists merged in process order reproduce the global
	// order exactly — which makes the scan embarrassingly parallel.
	dict := map[template]uint64{}
	var order []template
	if workers > 1 {
		localOrders := make([][]template, len(per))
		runProcs(len(per), workers, func(p int) {
			evs := per[p]
			local := map[template]struct{}{}
			for i := range evs {
				tp := templateOf(&evs[i])
				if _, ok := local[tp]; !ok {
					local[tp] = struct{}{}
					localOrders[p] = append(localOrders[p], tp)
				}
			}
		})
		for _, lo := range localOrders {
			for _, tp := range lo {
				if _, ok := dict[tp]; !ok {
					dict[tp] = uint64(len(order))
					order = append(order, tp)
				}
			}
		}
	} else {
		for _, evs := range per {
			for i := range evs {
				tp := templateOf(&evs[i])
				if _, ok := dict[tp]; !ok {
					dict[tp] = uint64(len(order))
					order = append(order, tp)
				}
			}
		}
	}
	if err := putUv(uint64(len(order))); err != nil {
		return err
	}
	for _, tp := range order {
		if err := putUv(uint64(tp.kind)); err != nil {
			return err
		}
		if err := putV(int64(tp.involved)); err != nil {
			return err
		}
		if err := putV(int64(tp.collOp)); err != nil {
			return err
		}
		if err := putV(int64(tp.peerOff)); err != nil {
			return err
		}
		if err := putV(int64(tp.tag)); err != nil {
			return err
		}
		if err := putUv(uint64(tp.size)); err != nil {
			return err
		}
	}

	// Per-process streams: each section depends only on its own
	// process's events and the (now frozen) dictionary, so sections
	// are encoded into per-process buffers concurrently and written
	// out in process order. The index needs every section's byte
	// length before the first body, so sections are fully buffered.
	bufs := make([]bytes.Buffer, len(per))
	if workers > 1 {
		runProcs(len(per), workers, func(p int) {
			compressSection(&bufs[p], p, per[p], dict)
		})
	} else {
		for p := range per {
			compressSection(&bufs[p], p, per[p], dict)
		}
	}
	for p := range bufs {
		if err := putUv(uint64(bufs[p].Len())); err != nil {
			return err
		}
	}
	for p := range bufs {
		if _, err := bw.Write(bufs[p].Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// runProcs runs fn(p) for p in [0, n) on a pool of workers goroutines.
func runProcs(n, workers int, fn func(p int)) {
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range ch {
				fn(p)
			}
		}()
	}
	for p := 0; p < n; p++ {
		ch <- p
	}
	close(ch)
	wg.Wait()
}

// compressSection encodes one process's event stream into buf. Writes
// to a bytes.Buffer cannot fail, so the section body is error-free by
// construction; I/O errors surface when the buffer is copied out.
func compressSection(buf *bytes.Buffer, p int, evs []Event, dict map[template]uint64) {
	var scratch [binary.MaxVarintLen64]byte
	putUv := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
		return nil
	}
	putV := func(v int64) {
		n := binary.PutVarint(scratch[:], v)
		buf.Write(scratch[:n])
	}

	putUv(uint64(len(evs)))
	// Template ids with tandem-repeat RLE.
	ids := make([]uint64, len(evs))
	for i := range evs {
		ids[i] = dict[templateOf(&evs[i])]
	}
	rleEncode(ids, putUv)
	// Times: gap since previous exit, service time, plus the
	// compute-before correction when it differs from the gap.
	var prevExit vtime.Time
	for i := range evs {
		e := &evs[i]
		gap := int64(e.Enter - prevExit)
		putV(gap)
		putUv(uint64(e.Exit - e.Enter))
		putV(int64(e.ComputeBefore) - gap)
		prevExit = e.Exit
	}
	// Relations: delta against expectation. For sends the expected
	// RelA is the process itself and RelB counts up; receives and
	// collectives store raw varints (they are small counters).
	var sendSeq int64
	for i := range evs {
		e := &evs[i]
		if e.Kind == Send {
			putV(e.RelA - int64(p))
			putV(e.RelB - sendSeq)
			sendSeq++
		} else {
			putV(e.RelA)
			putV(e.RelB)
		}
	}
	// Logical times (usually all NoLT in fresh traces).
	allNo := true
	for i := range evs {
		if evs[i].LT != NoLT {
			allNo = false
			break
		}
	}
	flag := uint64(0)
	if allNo {
		flag = 1
	}
	putUv(flag)
	if !allNo {
		for i := range evs {
			putV(evs[i].LT)
		}
	}
}

// rleEncode emits the id sequence as tokens: either (0, id) for a
// literal or (blockLen, count) pairs for a tandem repeat of the
// preceding blockLen ids.
func rleEncode(ids []uint64, putUv func(uint64) error) error {
	i := 0
	for i < len(ids) {
		// Find the best tandem repeat of a block ending at i.
		bestLen, bestCount := 0, 0
		for bl := 1; bl <= maxRepeatBlock && bl <= i; bl++ {
			count := 0
			for i+(count+1)*bl <= len(ids) && equalBlocks(ids, i-bl, i+count*bl, bl) {
				count++
			}
			if count > 0 && count*bl > bestCount*bestLen {
				bestLen, bestCount = bl, count
			}
		}
		if bestCount*bestLen >= 3 { // worth a token
			if err := putUv(uint64(bestLen)); err != nil {
				return err
			}
			if err := putUv(uint64(bestCount)); err != nil {
				return err
			}
			i += bestLen * bestCount
			continue
		}
		if err := putUv(0); err != nil {
			return err
		}
		if err := putUv(ids[i]); err != nil {
			return err
		}
		i++
	}
	return nil
}

func equalBlocks(ids []uint64, a, b, n int) bool {
	for k := 0; k < n; k++ {
		if ids[a+k] != ids[b+k] {
			return false
		}
	}
	return true
}

// Decompress reads the compressed tracefile format, decoding its
// sections on GOMAXPROCS workers.
func Decompress(r io.Reader) (*Trace, error) {
	return decompress(r, runtime.GOMAXPROCS(0))
}

// decompress is Decompress on the given number of workers. The decoded
// trace is identical at every worker count because sections are
// process-independent and assembled in process order.
func decompress(r io.Reader, workers int) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if err := checkMagic(m[:], magicZ2); err != nil {
		return nil, err
	}
	getUv := func() (uint64, error) { return binary.ReadUvarint(br) }
	getV := func() (int64, error) { return binary.ReadVarint(br) }

	nameLen, err := getUv()
	if err != nil {
		return nil, err
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: implausible name length")
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	procsU, err := getUv()
	if err != nil {
		return nil, err
	}
	procs := int(procsU)
	if procs <= 0 || procs > 1<<20 {
		return nil, fmt.Errorf("trace: implausible process count %d", procs)
	}
	aetU, err := getUv()
	if err != nil {
		return nil, err
	}

	nTemplates, err := getUv()
	if err != nil {
		return nil, err
	}
	if nTemplates > 1<<24 {
		return nil, fmt.Errorf("trace: implausible template count")
	}
	templates := make([]template, nTemplates)
	for i := range templates {
		k, err := getUv()
		if err != nil {
			return nil, err
		}
		inv, err := getV()
		if err != nil {
			return nil, err
		}
		co, err := getV()
		if err != nil {
			return nil, err
		}
		po, err := getV()
		if err != nil {
			return nil, err
		}
		tg, err := getV()
		if err != nil {
			return nil, err
		}
		sz, err := getUv()
		if err != nil {
			return nil, err
		}
		templates[i] = template{kind: Kind(k), involved: int32(inv), collOp: int8(co),
			peerOff: int32(po), tag: int32(tg), size: int64(sz)}
	}

	// The index gives every section's byte range up front, so sections
	// load as opaque buffers and decode on a worker pool.
	lens := make([]uint64, procs)
	for p := range lens {
		sl, err := getUv()
		if err != nil {
			return nil, fmt.Errorf("trace: reading section index: %w", err)
		}
		if sl > maxSectionBytes {
			return nil, fmt.Errorf("trace: implausible section length %d (proc %d)", sl, p)
		}
		lens[p] = sl
	}
	secs := make([][]byte, procs)
	for p := range secs {
		secs[p] = make([]byte, lens[p])
		if _, err := io.ReadFull(br, secs[p]); err != nil {
			return nil, fmt.Errorf("trace: reading section %d: %w", p, err)
		}
	}
	if workers > procs {
		workers = procs
	}
	streams := make([][]Event, procs)
	errs := make([]error, procs)
	runProcs(procs, workers, func(p int) {
		sr := bytes.NewReader(secs[p])
		evs, err := decompressSection(sr, p, templates)
		if err == nil && sr.Len() != 0 {
			err = fmt.Errorf("trace: %d trailing bytes in section %d", sr.Len(), p)
		}
		streams[p], errs[p] = evs, err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return NewTrace(string(name), procs, streams, vtime.Duration(aetU))
}

// decompressSection decodes one process's section body from its
// isolated per-section buffer.
func decompressSection(br io.ByteReader, p int, templates []template) ([]Event, error) {
	getUv := func() (uint64, error) { return binary.ReadUvarint(br) }
	getV := func() (int64, error) { return binary.ReadVarint(br) }

	count, err := getUv()
	if err != nil {
		return nil, err
	}
	if count > 1<<32 {
		return nil, fmt.Errorf("trace: implausible event count")
	}
	ids, err := rleDecode(int(count), getUv)
	if err != nil {
		return nil, err
	}
	evs := make([]Event, count)
	for i := range evs {
		if ids[i] >= uint64(len(templates)) {
			return nil, fmt.Errorf("trace: template id out of range")
		}
		tp := templates[ids[i]]
		peer := int32(-1)
		if tp.peerOff != peerNone {
			peer = int32(p) + tp.peerOff
		}
		evs[i] = Event{
			Process: int32(p), Number: int64(i),
			Kind: tp.kind, Involved: tp.involved, CollOp: tp.collOp,
			Peer: peer, Tag: tp.tag, Size: tp.size, LT: NoLT,
		}
	}
	var prevExit vtime.Time
	for i := range evs {
		gap, err := getV()
		if err != nil {
			return nil, err
		}
		service, err := getUv()
		if err != nil {
			return nil, err
		}
		corr, err := getV()
		if err != nil {
			return nil, err
		}
		evs[i].Enter = prevExit.Add(vtime.Duration(gap))
		evs[i].Exit = evs[i].Enter.Add(vtime.Duration(service))
		evs[i].ComputeBefore = vtime.Duration(gap + corr)
		prevExit = evs[i].Exit
	}
	var sendSeq int64
	for i := range evs {
		ra, err := getV()
		if err != nil {
			return nil, err
		}
		rb, err := getV()
		if err != nil {
			return nil, err
		}
		if evs[i].Kind == Send {
			evs[i].RelA = ra + int64(p)
			evs[i].RelB = rb + sendSeq
			sendSeq++
		} else {
			evs[i].RelA = ra
			evs[i].RelB = rb
		}
	}
	flag, err := getUv()
	if err != nil {
		return nil, err
	}
	if flag == 0 {
		for i := range evs {
			lt, err := getV()
			if err != nil {
				return nil, err
			}
			evs[i].LT = lt
		}
	}
	return evs, nil
}

// rleDecode expands the token stream back into count ids.
func rleDecode(count int, getUv func() (uint64, error)) ([]uint64, error) {
	ids := make([]uint64, 0, count)
	for len(ids) < count {
		tok, err := getUv()
		if err != nil {
			return nil, err
		}
		if tok == 0 {
			id, err := getUv()
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
			continue
		}
		bl := int(tok)
		repU, err := getUv()
		if err != nil {
			return nil, err
		}
		rep := int(repU)
		if bl > len(ids) || rep <= 0 || len(ids)+bl*rep > count {
			return nil, fmt.Errorf("trace: corrupt repeat token (block %d x %d at %d/%d)", bl, rep, len(ids), count)
		}
		start := len(ids) - bl
		for r := 0; r < rep; r++ {
			ids = append(ids, ids[start:start+bl]...)
		}
	}
	return ids, nil
}

// DecodeAny sniffs the tracefile format (flat binary, compressed, or
// JSON) and decodes accordingly. Anything else, retired layouts
// included, is rejected by the flat decoder's magic check.
func DecodeAny(r io.Reader) (*Trace, error) {
	return DecodeAnyWith(r, CodecOptions{})
}

// DecodeAnyWith is DecodeAny with codec options; the options apply to
// the flat binary path (the compressed and JSON decoders publish no
// codec metrics).
func DecodeAnyWith(r io.Reader, opts CodecOptions) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(8)
	if err != nil {
		return nil, fmt.Errorf("trace: sniffing format: %w", err)
	}
	switch {
	case bytes.Equal(head, magicZ2[:]):
		return Decompress(br)
	case head[0] == '{':
		return DecodeJSON(br)
	default:
		return DecodeWith(br, opts)
	}
}
