package trace

// Random-access per-rank streams over a v2 tracefile: the entry point
// of the out-of-core analysis pipeline.
//
// The v2 layout stores events grouped by process (NewTrace appends
// stream after stream and BlockWriter preserves append order), records
// are fixed-size, and every block carries its own CRC32C — so the byte
// offset of record i is computable and the per-process section
// boundaries can be recovered with a binary search over the Process
// field, without decoding a single record. RankStreams exploits that
// to expose one independent, lazily decoded cursor per process: the
// bounded-memory k-way merge in internal/logical pulls one event at a
// time from each cursor and never materialises the full event slice.
//
// Integrity model: rank-stream mode verifies the header checksum (done
// by NewBlockReader before RankStreams is reachable), every block's
// CRC32C as the block is first touched by a cursor, the trailer magic
// at its computed offset, and that the file ends after the 4-byte
// whole-file CRC that follows it. That CRC is NOT verified — it is an
// accumulation over the serial byte order, which a random-access
// reader by construction does not follow. Callers needing the full
// serial guarantee run VerifyStream first (repo fsck does).
// Bound-probe reads are positioning only; every record a cursor yields
// comes out of a CRC-verified block, and each record's Process field
// is checked against its section, so a file that is not proc-grouped
// is detected rather than silently misread.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"pas2p/internal/obs"
)

// BlockReader opens a v2 tracefile for out-of-core analysis: it reads
// and verifies the prefix, surfaces the header through Meta before any
// event is read, and hands out per-rank streams over the blocks that
// follow.
type BlockReader struct {
	meta Meta
	// ra and bodyOff enable RankStreams: the source, when it supports
	// random access, and the byte offset of the first event block.
	ra      io.ReaderAt
	bodyOff int64
	reg     *obs.Registry
}

// NewBlockReader reads the tracefile prefix (magic, header, name and
// header checksum).
func NewBlockReader(r io.Reader) (*BlockReader, error) {
	return NewBlockReaderWith(r, CodecOptions{})
}

// NewBlockReaderWith is NewBlockReader with codec options: when
// opts.Reg is set, the rank streams count every block they verify into
// its codec.decode.blocks and codec.decode.bytes counters.
func NewBlockReaderWith(r io.Reader, opts CodecOptions) (*BlockReader, error) {
	cr := &crcReader{br: bufio.NewReaderSize(r, 1<<16)}
	meta, err := readPrefix(cr)
	if err != nil {
		return nil, err
	}
	ra, _ := r.(io.ReaderAt)
	return &BlockReader{meta: meta, ra: ra, bodyOff: cr.off, reg: opts.Reg}, nil
}

// Meta returns the tracefile's header.
func (br *BlockReader) Meta() Meta { return br.meta }

// procFieldOff is the byte offset of the Process field inside a record
// (see putRecord/getRecord in codec.go).
const procFieldOff = 8

// RankStreams is a per-process random-access view over a v2 tracefile.
// Obtain one from BlockReader.RankStreams. It implements the event-
// source contract the streaming logical order consumes: Meta and
// NextEvent.
type RankStreams struct {
	ra      io.ReaderAt
	meta    Meta
	bodyOff int64
	// bounds[p]..bounds[p+1] is process p's record index range.
	bounds []uint64
	// cursors backs NextEvent; created lazily per process.
	cursors []*rankCursor
	// blocks and bytes count the verified blocks; nil when not
	// measuring.
	blocks, bytes *obs.Counter
}

// RankStreams returns a per-process random-access view of the reader's
// tracefile. It requires a source that implements io.ReaderAt (an
// *os.File or *bytes.Reader does; a pipe does not).
func (br *BlockReader) RankStreams() (*RankStreams, error) {
	if br.ra == nil {
		return nil, fmt.Errorf("trace: rank streams need a random-access source (io.ReaderAt)")
	}
	return newRankStreams(br.ra, br.meta, br.bodyOff, br.reg)
}

func newRankStreams(ra io.ReaderAt, meta Meta, bodyOff int64, reg *obs.Registry) (*RankStreams, error) {
	rs := &RankStreams{ra: ra, meta: meta, bodyOff: bodyOff,
		bounds:  make([]uint64, meta.Procs+1),
		cursors: make([]*rankCursor, meta.Procs),
	}
	if reg != nil {
		rs.blocks, rs.bytes = reg.Counter("codec.decode.blocks"), reg.Counter("codec.decode.bytes")
	}
	// The trailer magic sits at a computable offset; checking it up
	// front catches a truncated file before any cursor runs.
	nblocks := (meta.Events + blockEvents - 1) / blockEvents
	trailerOff := bodyOff + int64(meta.Events)*recordSize + int64(nblocks)*4
	var tm [8]byte
	if _, err := ra.ReadAt(tm[:], trailerOff); err != nil {
		return nil, corruptf(trailerOff, "reading trailer: %v", err)
	}
	if tm != trailer {
		return nil, corruptf(trailerOff, "bad trailer %q", tm[:])
	}
	var probe [1]byte
	n, err := ra.ReadAt(probe[:], trailerOff+12)
	if n > 0 {
		err = nil // a byte past the file checksum
	}
	if err := atEnd(err, trailerOff+12); err != nil {
		return nil, err
	}
	if err := rs.findBounds(); err != nil {
		return nil, err
	}
	return rs, nil
}

// recordOff returns the byte offset of record i: records are
// recordSize bytes and every full block before it contributed a 4-byte
// CRC.
func (rs *RankStreams) recordOff(i uint64) int64 {
	return rs.bodyOff + int64(i)*recordSize + int64(i/blockEvents)*4
}

// findBounds recovers the per-process section boundaries with one
// binary search per process over the Process field. Probes skip the
// block CRCs (they are positioning only); correctness does not depend
// on them, because every record a cursor later yields is re-read
// through a CRC-verified block and checked against its section.
func (rs *RankStreams) findBounds() error {
	count := rs.meta.Events
	var probeErr error
	procAt := func(i uint64) int32 {
		var b [4]byte
		off := rs.recordOff(i) + procFieldOff
		if _, err := rs.ra.ReadAt(b[:], off); err != nil && probeErr == nil {
			probeErr = corruptf(off, "probing process of event %d: %v", i, err)
		}
		return int32(binary.LittleEndian.Uint32(b[:]))
	}
	lo := uint64(0)
	for p := 1; p < rs.meta.Procs; p++ {
		n := int(count - lo)
		k := sort.Search(n, func(k int) bool {
			if probeErr != nil {
				return true
			}
			return procAt(lo+uint64(k)) >= int32(p)
		})
		if probeErr != nil {
			return probeErr
		}
		lo += uint64(k)
		rs.bounds[p] = lo
	}
	rs.bounds[rs.meta.Procs] = count
	return nil
}

// Meta returns the tracefile's header.
func (rs *RankStreams) Meta() Meta { return rs.meta }

// NextEvent copies process p's next event into dst and advances its
// cursor; it returns false with a nil error when the stream is done.
func (rs *RankStreams) NextEvent(p int, dst *Event) (bool, error) {
	c := rs.cursors[p]
	if c == nil {
		c = rs.cursor(p)
		rs.cursors[p] = c
	}
	return c.Next(dst)
}

// cursor returns a fresh independent cursor over process p's events.
// Each cursor owns one block-sized buffer (~46 KiB), so memory is
// O(procs), not O(events).
func (rs *RankStreams) cursor(p int) *rankCursor {
	return &rankCursor{
		rs:       rs,
		proc:     int32(p),
		next:     rs.bounds[p],
		end:      rs.bounds[p+1],
		buf:      make([]byte, blockBytes+4),
		bufBlock: -1,
	}
}

// rankCursor iterates one process's events in per-process order,
// decoding lazily out of whole CRC-verified blocks.
type rankCursor struct {
	rs        *RankStreams
	proc      int32
	next, end uint64
	buf       []byte
	bufBlock  int64
	bufStart  uint64
}

// Next copies the cursor's next event into dst; false with a nil error
// means the process's section is exhausted.
func (c *rankCursor) Next(dst *Event) (bool, error) {
	if c.next >= c.end {
		return false, nil
	}
	b := int64(c.next / blockEvents)
	if b != c.bufBlock {
		if err := c.loadBlock(b); err != nil {
			return false, err
		}
	}
	rel := c.next - c.bufStart
	getRecord(c.buf[rel*recordSize:], dst)
	if dst.Process != c.proc {
		return false, corruptf(c.rs.recordOff(c.next)+procFieldOff,
			"rank stream: event %d in process %d's section belongs to process %d (tracefile not grouped by process)",
			c.next, c.proc, dst.Process)
	}
	c.next++
	return true, nil
}

// loadBlock reads block b whole and verifies its CRC. Blocks that
// straddle a section boundary are verified by both adjacent cursors —
// a negligible double cost that keeps every yielded record covered by
// a checksum.
func (c *rankCursor) loadBlock(b int64) error {
	start := uint64(b) * blockEvents
	end := start + blockEvents
	if end > c.rs.meta.Events {
		end = c.rs.meta.Events
	}
	buf := c.buf[:int(end-start)*recordSize+4]
	ext := blockExtent{start: start, end: end, off: c.rs.recordOff(start)}
	if _, err := c.rs.ra.ReadAt(buf, ext.off); err != nil {
		return corruptf(ext.off, "rank stream: reading event block %d-%d: %v", start, end-1, err)
	}
	if err := verifyBlock(buf, ext, nil); err != nil {
		return err
	}
	if c.rs.blocks != nil {
		c.rs.blocks.Inc()
		c.rs.bytes.Add(int64(len(buf)))
	}
	c.bufBlock, c.bufStart = b, start
	return nil
}
