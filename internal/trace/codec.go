package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"pas2p/internal/vtime"
)

// Binary tracefile layout. The format exists so tracefile sizes
// (Table 8's TFSize column) and analysis input costs are realistic,
// and so traces can be moved between the analyze/signature stages of
// the CLI.
//
// Version 2 (PAS2PTR2) is the crash-safe, corruption-detecting
// format: the stored artefacts are the system of record once a site
// serves predictions from a repository, so every region of the file
// is covered by a CRC32C (Castagnoli):
//
//	magic[8] "PAS2PTR2"
//	header[24]  nameLen u16 | reserved u16 | procs u32 | count u64 | aet u64
//	appName[nameLen]
//	headerCRC u32           over magic+header+appName
//	blocks: per <=blockEvents records, the raw records then a u32 CRC
//	trailer[8] "PAS2PEND"
//	fileCRC u32             over every preceding byte of the file
//
// Nothing may follow the file CRC: every reader refuses a byte past it.
// This is the only tracefile layout read or written: the unchecksummed
// layouts (flat PAS2PTR1, compressed PAS2PTZ1 and PAS2PTZ2) are
// retired and rejected with ErrRetiredFormat, and any other leading
// bytes (a JSON document included) with a bad-magic error. Decode
// never trusts header-declared sizes for allocation and reports
// corruption with the byte offset at which it was detected.

var (
	magicV2 = [8]byte{'P', 'A', 'S', '2', 'P', 'T', 'R', '2'}
	trailer = [8]byte{'P', 'A', 'S', '2', 'P', 'E', 'N', 'D'}
)

// retiredMagics are the leading bytes of the layouts no longer read,
// none of which carries a checksum: the flat PAS2PTR1 and the
// compressed PAS2PTZ1 and PAS2PTZ2. PAS2PTR1 is two bits of byte 7
// away from the current magic, so a damaged current file can carry
// it; naming them all gives that case, and an old file, a typed error.
var retiredMagics = [...][8]byte{
	{'P', 'A', 'S', '2', 'P', 'T', 'R', '1'},
	{'P', 'A', 'S', '2', 'P', 'T', 'Z', '1'},
	{'P', 'A', 'S', '2', 'P', 'T', 'Z', '2'},
}

// ErrRetiredFormat is matched (errors.Is) by the error every reader
// returns for a file in a retired layout.
var ErrRetiredFormat = errors.New("retired tracefile format")

// checkMagic accepts exactly want; a retired layout gets
// ErrRetiredFormat and anything else a bad-magic error.
func checkMagic(got []byte, want [8]byte) error {
	if string(got) == string(want[:]) {
		return nil
	}
	for _, r := range retiredMagics {
		if string(got) == string(r[:]) {
			return corruptf(0, "%w %q", ErrRetiredFormat, got)
		}
	}
	return corruptf(0, "bad magic %q", got)
}

// crcTable is the Castagnoli polynomial table shared by encode and
// decode (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const recordSize = 8 + // ID
	4 + 8 + // Process, Number
	1 + 4 + 1 + // Kind, Involved, CollOp
	4 + 4 + 8 + // Peer, Tag, Size
	8 + 8 + // Enter, Exit
	8 + // LT
	8 + 8 + // RelA, RelB
	8 // ComputeBefore

// blockEvents is the number of event records per checksummed block;
// a corruption is localised to one block-sized byte range.
const blockEvents = 512

// maxEventCount caps the header-declared event count; anything larger
// is rejected as implausible before any reading happens.
const maxEventCount = 1 << 36

// eventChunk is the most a decode reserves before any event has
// verified (eventReservation), so a malicious count cannot force a
// huge up-front allocation.
const eventChunk = 1 << 16

// FileCRC extracts the whole-file CRC32-C a v2 tracefile declares in
// its trailer without reading the body. Every preceding byte feeds
// it, but the header and every block end in their own CRC32-C, and a
// CRC run over bytes that end in their own CRC leaves a fixed residue:
// the value depends only on the lengths of the header and the blocks,
// not on the content, so traces of the same layout share it. It is no
// content identity (the signature service keys its cache on a digest
// of the bytes). The second return is false when data is not a
// plausible v2 tracefile (wrong magic, missing trailer); the CRC
// itself is NOT verified here — only a full Decode or VerifyStream
// proves the bytes match it.
func FileCRC(data []byte) (uint32, bool) {
	return FileCRCAt(bytes.NewReader(data), int64(len(data)))
}

// FileCRCAt is FileCRC for a random-access source of known size (a
// spooled upload, an mmap'd artefact): it reads the 8-byte magic and
// the 12-byte trailer without touching the body, so the identity of an
// arbitrarily large tracefile costs two tiny reads.
func FileCRCAt(ra io.ReaderAt, size int64) (uint32, bool) {
	if size < int64(len(magicV2)+len(trailer)+4) {
		return 0, false
	}
	var head [8]byte
	if _, err := ra.ReadAt(head[:], 0); err != nil || head != magicV2 {
		return 0, false
	}
	var tail [12]byte
	if _, err := ra.ReadAt(tail[:], size-12); err != nil {
		return 0, false
	}
	if [8]byte(tail[:8]) != trailer {
		return 0, false
	}
	return binary.LittleEndian.Uint32(tail[8:]), true
}

// EncodedSize returns the exact size in bytes of the current (v2)
// tracefile of a trace with header m.
func EncodedSize(m Meta) int64 {
	n := int64(m.Events)
	blocks := (n + blockEvents - 1) / blockEvents
	return 8 + 24 + int64(len(m.AppName)) + 4 + // magic, header, name, headerCRC
		n*recordSize + blocks*4 + // records + per-block CRCs
		8 + 4 // trailer magic + fileCRC
}

// putRecord serialises one event into b (recordSize bytes), with id
// in the record's ID column.
func putRecord(b []byte, e *Event, id int64) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], uint64(id))
	le.PutUint32(b[8:], uint32(e.Process))
	le.PutUint64(b[12:], uint64(e.Number))
	b[20] = byte(e.Kind)
	le.PutUint32(b[21:], uint32(e.Involved))
	b[25] = byte(e.CollOp)
	le.PutUint32(b[26:], uint32(e.Peer))
	le.PutUint32(b[30:], uint32(e.Tag))
	le.PutUint64(b[34:], uint64(e.Size))
	le.PutUint64(b[42:], uint64(e.Enter))
	le.PutUint64(b[50:], uint64(e.Exit))
	le.PutUint64(b[58:], uint64(e.LT))
	le.PutUint64(b[66:], uint64(e.RelA))
	le.PutUint64(b[74:], uint64(e.RelB))
	le.PutUint64(b[82:], uint64(e.ComputeBefore))
}

// getRecord deserialises one event from b (recordSize bytes). The ID
// column is skipped: no reader uses it.
func getRecord(b []byte, e *Event) {
	le := binary.LittleEndian
	e.Process = int32(le.Uint32(b[8:]))
	e.Number = int64(le.Uint64(b[12:]))
	e.Kind = Kind(b[20])
	e.Involved = int32(le.Uint32(b[21:]))
	e.CollOp = int8(b[25])
	e.Peer = int32(le.Uint32(b[26:]))
	e.Tag = int32(le.Uint32(b[30:]))
	e.Size = int64(le.Uint64(b[34:]))
	e.Enter = vtime.Time(le.Uint64(b[42:]))
	e.Exit = vtime.Time(le.Uint64(b[50:]))
	e.LT = int64(le.Uint64(b[58:]))
	e.RelA = int64(le.Uint64(b[66:]))
	e.RelB = int64(le.Uint64(b[74:]))
	e.ComputeBefore = vtime.Duration(le.Uint64(b[82:]))
}

// crcWriter accumulates the whole-file CRC as bytes stream out.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (cw *crcWriter) write(p []byte) error {
	cw.crc = crc32.Update(cw.crc, crcTable, p)
	_, err := cw.w.Write(p)
	return err
}

// Encode writes the current (v2, checksummed) binary tracefile
// format, one serialised and checksummed block at a time (blockio.go);
// use EncodeWith to attach metrics.
func Encode(w io.Writer, t *Trace) error {
	return EncodeWith(w, t, CodecOptions{})
}

// crcReader tracks the byte offset and whole-file CRC of everything
// read, so corruption errors can locate themselves.
type crcReader struct {
	br  *bufio.Reader
	off int64
	crc uint32
}

func (cr *crcReader) readFull(p []byte) error {
	n, err := io.ReadFull(cr.br, p)
	cr.crc = crc32.Update(cr.crc, crcTable, p[:n])
	cr.off += int64(n)
	return err
}

// ErrCorrupt is matched (errors.Is) by every error that locates damage
// in a file by byte offset: a bad magic (retired layouts included), a
// failed checksum, a truncation, an implausible v2 header, a v2 file
// not grouped by process.
var ErrCorrupt = errors.New("corrupt tracefile")

// corruptError carries a corruption message and matches ErrCorrupt
// without adding it to the text.
type corruptError struct{ error }

func (e corruptError) Is(target error) bool { return target == ErrCorrupt }
func (e corruptError) Unwrap() error        { return e.error }

// corruptf builds a corruption error carrying the detection offset;
// format may wrap a further sentinel with %w.
func corruptf(off int64, format string, args ...any) error {
	return corruptError{fmt.Errorf("trace: "+format+" (at byte offset %d)", append(args, off)...)}
}

// Decode reads the binary tracefile format, verifying every checksum.
// All corruption and truncation errors include the byte offset at which
// the problem was detected. Block verification and deserialisation run
// on a pool of GOMAXPROCS workers (blockio.go); use DecodeWith to
// attach metrics.
func Decode(r io.Reader) (*Trace, error) {
	return DecodeWith(r, CodecOptions{})
}

// readPrefix reads and verifies the tracefile prefix — magic, header,
// app name and header CRC — leaving cr at the first event block. The
// declared counts are range-checked here but never trusted for
// allocation.
func readPrefix(cr *crcReader) (Meta, error) {
	var mg [8]byte
	if err := cr.readFull(mg[:]); err != nil {
		return Meta{}, corruptf(cr.off, "reading magic: %v", err)
	}
	if err := checkMagic(mg[:], magicV2); err != nil {
		return Meta{}, err
	}
	var hdr [24]byte
	if err := cr.readFull(hdr[:]); err != nil {
		return Meta{}, corruptf(cr.off, "reading header: %v", err)
	}
	le := binary.LittleEndian
	meta := Meta{
		Procs:  int(le.Uint32(hdr[4:])),
		Events: le.Uint64(hdr[8:]),
		AET:    vtime.Duration(le.Uint64(hdr[16:])),
	}
	if meta.Procs <= 0 || meta.Procs > 1<<20 {
		return Meta{}, corruptf(cr.off, "implausible process count %d", meta.Procs)
	}
	if meta.Events > maxEventCount {
		return Meta{}, corruptf(cr.off, "implausible event count %d", meta.Events)
	}
	name := make([]byte, le.Uint16(hdr[0:]))
	if err := cr.readFull(name); err != nil {
		return Meta{}, corruptf(cr.off, "reading app name: %v", err)
	}
	meta.AppName = string(name)
	// The header CRC covers every byte read so far, which is exactly
	// what the running whole-file CRC holds.
	if err := readCRC(cr, "header", cr.crc); err != nil {
		return Meta{}, err
	}
	return meta, nil
}

// readTrailer consumes and verifies the trailer magic and the
// whole-file CRC that close the tracefile, and requires the input to
// end there.
func readTrailer(cr *crcReader) error {
	var tm [8]byte
	if err := cr.readFull(tm[:]); err != nil {
		return corruptf(cr.off, "reading trailer: %v", err)
	}
	if tm != trailer {
		return corruptf(cr.off-8, "bad trailer %q", tm[:])
	}
	if err := readCRC(cr, "file", cr.crc); err != nil {
		return err
	}
	_, err := cr.br.ReadByte()
	return atEnd(err, cr.off)
}

// atEnd turns the error of a one-byte read at off, the end of the
// file checksum, into nil when the input ends there, and into a
// corruption error when it goes on or fails.
func atEnd(err error, off int64) error {
	switch err {
	case io.EOF:
		return nil
	case nil:
		return corruptf(off, "data after the file checksum")
	}
	return corruptf(off, "reading past the file checksum: %v", err)
}

// readCRC reads a stored u32 CRC and compares it with want.
func readCRC(cr *crcReader, what string, want uint32) error {
	var u32 [4]byte
	if err := cr.readFull(u32[:]); err != nil {
		return corruptf(cr.off, "reading %s checksum: %v", what, err)
	}
	if got := binary.LittleEndian.Uint32(u32[:]); got != want {
		return corruptf(cr.off, "%s checksum mismatch (stored %08x, computed %08x)", what, got, want)
	}
	return nil
}

// eventReservation sizes the next region a decode of count events
// reserves once verified of them have verified against their
// checksums. A reservation never exceeds max(2*verified, eventChunk),
// so a forged header count buys at most eventChunk events before real
// data backs it. Until the count is within that bound, the region is a
// chunk as large as everything verified so far (O(log n) chunks, which
// the decode holds packed, packed.go); then final is true and the
// region is the exact count, the decode's one events slice, into which
// the packed chunks are unpacked. Every chunk is a multiple of
// eventChunk, itself a whole number of blocks, so no block straddles
// two regions.
func eventReservation(verified, count uint64) (n uint64, final bool) {
	if count <= max(2*verified, eventChunk) {
		return count, true
	}
	return max(verified, eventChunk), false
}
