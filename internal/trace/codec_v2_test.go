package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestGoldenV1Migration pins the rejection of the retired layouts:
// each committed golden file, written by a retired encoder that
// stored no checksum (the flat PAS2PTR1, and the compressed PAS2PTZ2
// of a sweep3d run on 4 ranks), must be refused with ErrRetiredFormat
// (and a byte offset) by every reader, never decoded.
func TestGoldenV1Migration(t *testing.T) {
	for _, golden := range []struct{ file, magic string }{
		{"golden_v1.pas2p", "PAS2PTR1"},
		{"golden_z2.pas2p", "PAS2PTZ2"},
	} {
		raw, err := os.ReadFile("testdata/" + golden.file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw, []byte(golden.magic)) {
			t.Fatalf("%s is not in the retired %s layout", golden.file, golden.magic)
		}
		for _, rd := range retiredReaders {
			err := rd.read(bytes.NewReader(raw))
			if !errors.Is(err, ErrRetiredFormat) {
				t.Errorf("%s(%s) = %v, want ErrRetiredFormat", rd.name, golden.file, err)
			} else if !strings.Contains(err.Error(), "offset") {
				t.Errorf("%s(%s): error lacks offset: %v", rd.name, golden.file, err)
			}
		}
	}
}

// retiredReaders are the readers that check a tracefile's magic.
var retiredReaders = []struct {
	name string
	read func(io.Reader) error
}{
	{"Decode", func(r io.Reader) error { _, err := Decode(r); return err }},
	{"NewBlockReader", func(r io.Reader) error { _, err := NewBlockReader(r); return err }},
	{"VerifyStream", func(r io.Reader) error { _, err := VerifyStream(r); return err }},
}

// TestMagicDowngradeRejected flips two bits of byte 7 of a current
// flat file (PAS2PTR2 → PAS2PTR1) and of the golden compressed
// archive (PAS2PTZ2 → PAS2PTZ1). The result carries another retired
// layout's magic; every reader must answer it with ErrRetiredFormat
// rather than decode the bytes under that layout's (unchecksummed)
// rules.
func TestMagicDowngradeRejected(t *testing.T) {
	tr := fuzzTrace(t, 7, 3, 40)
	var flat bytes.Buffer
	if err := Encode(&flat, tr); err != nil {
		t.Fatal(err)
	}
	z, err := os.ReadFile("testdata/golden_z2.pas2p")
	if err != nil {
		t.Fatal(err)
	}
	downgrade := func(b []byte) []byte {
		out := bytes.Clone(b)
		out[7] ^= 3
		return out
	}
	files := []struct {
		name, magic string
		data        []byte
	}{
		{"flat", "PAS2PTR1", downgrade(flat.Bytes())},
		{"compressed", "PAS2PTZ1", downgrade(z)},
	}
	for _, f := range files {
		if string(f.data[:8]) != f.magic {
			t.Fatalf("%s: downgraded magic %q, want %q", f.name, f.data[:8], f.magic)
		}
		for _, rd := range retiredReaders {
			err := rd.read(bytes.NewReader(f.data))
			if !errors.Is(err, ErrRetiredFormat) {
				t.Errorf("%s/%s: err = %v, want ErrRetiredFormat", f.name, rd.name, err)
			} else if !strings.Contains(err.Error(), "offset") {
				t.Errorf("%s/%s: error lacks offset: %v", f.name, rd.name, err)
			}
		}
	}
}

// TestDecodeV2DetectsCorruptionWithOffset flips one byte at every
// position of a small v2 file and requires each flip to be rejected
// with an error that locates itself by byte offset.
func TestDecodeV2DetectsCorruptionWithOffset(t *testing.T) {
	tr := fuzzTrace(t, 3, 2, 20)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for pos := 0; pos < len(raw); pos++ {
		corrupted := append([]byte(nil), raw...)
		corrupted[pos] ^= 0x41
		_, err := Decode(bytes.NewReader(corrupted))
		if err == nil {
			t.Fatalf("flip at byte %d of %d went undetected", pos, len(raw))
		}
		if !strings.Contains(err.Error(), "offset") {
			t.Fatalf("flip at byte %d: error lacks offset: %v", pos, err)
		}
	}
}

// TestDecodeV2DetectsTruncation cuts the tail at every length and
// requires a located error — torn writes must never yield a silently
// shorter trace.
func TestDecodeV2DetectsTruncation(t *testing.T) {
	tr := fuzzTrace(t, 5, 2, 8)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		_, err := Decode(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", cut, len(raw))
		}
		if !strings.Contains(err.Error(), "offset") {
			t.Fatalf("truncation to %d: error lacks offset: %v", cut, err)
		}
	}
}

// maliciousPrefix builds a complete, checksum-valid tracefile prefix
// (magic, header, empty app name, header CRC) declaring count events,
// followed by no body at all.
func maliciousPrefix(count uint64) []byte {
	b := append([]byte(nil), magicV2[:]...)
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[4:], 1)            // procs
	binary.LittleEndian.PutUint64(hdr[8:], count)        // events
	binary.LittleEndian.PutUint64(hdr[16:], 1_000_000_0) // aet
	b = append(b, hdr[:]...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// TestDecodeBoundsMaliciousHeader crafts a header that passes its own
// checksum yet claims 2^35 events (~3 TiB of records) with no body:
// Decode and VerifyStream must fail on the missing body without first
// attempting a multi-gigabyte allocation (chunked growth bounds the
// damage to one eventChunk).
func TestDecodeBoundsMaliciousHeader(t *testing.T) {
	raw := maliciousPrefix(1 << 35)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, decErr := Decode(bytes.NewReader(raw))
	_, verErr := VerifyStream(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	for name, err := range map[string]error{"Decode": decErr, "VerifyStream": verErr} {
		if err == nil {
			t.Fatalf("%s: malicious header should fail", name)
		}
		if !strings.Contains(err.Error(), "offset") {
			t.Errorf("%s: error lacks offset: %v", name, err)
		}
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Errorf("malicious header cost %d MiB of allocation", alloc>>20)
	}

	// Above the plausibility cap the header itself is rejected.
	if _, err := Decode(bytes.NewReader(maliciousPrefix(1 << 40))); err == nil ||
		!strings.Contains(err.Error(), "implausible event count") {
		t.Errorf("count cap not enforced: %v", err)
	}
}

// TestEncodedSizeMatchesV2 pins the size formula against real output
// across block-boundary event counts.
func TestEncodedSizeMatchesV2(t *testing.T) {
	for _, events := range []int{0, 1, blockEvents - 1, blockEvents, blockEvents + 1, 3 * blockEvents} {
		tr := fuzzTrace(t, int64(events)+1, 1, events)
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != EncodedSize(tr.Meta()) {
			t.Errorf("%d events: EncodedSize = %d, actual %d", events, EncodedSize(tr.Meta()), buf.Len())
		}
	}
}

// TestEncodeOutputPinned pins the SHA-256 of Encode output for fixed
// traces, so any change to the writer (how blocks are produced, in
// which order, by which code path) that alters a single byte of the
// on-disk format fails here first.
func TestEncodeOutputPinned(t *testing.T) {
	shapes := []struct {
		seed          int64
		procs, events int // events per process
		encode        string
	}{
		{1, 1, 0,
			"e0890a0377e3e18ff6500434dba9e3bbd078688046574f29a8ea5c2a3f96c509"},
		{3, 2, 255,
			"3e3457f2ad754ed4132a93517a103345c674c9eb9e8f928a4ea3437540a60dab"},
		{5, 2, 256,
			"e4f8eefed4898691479f48087b608cf700fd3879a2a9aa948175244c8a1e791a"},
		{6, 4, 1500,
			"4b59c36e9864fe69ae2c8e1b25e12b6c639e0b85150d99ac30d012b1d3332f49"},
		{7, 3, 2048,
			"2c9f9496fb1f053fe915c57a29a4ca1c22e48c5f81d32a50245c3c52f21bf72a"},
		{8, 1, 40000,
			"dade7b78fa178b2201365e9f846c525ffcf47bb4f853d7252f9c32371b710d27"},
	}
	for _, s := range shapes {
		h := sha256.New()
		if err := Encode(h, fuzzTrace(t, s.seed, s.procs, s.events)); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != s.encode {
			t.Errorf("seed %d: Encode sha256 %s, want %s", s.seed, got, s.encode)
		}
	}
}

// TestFileCRC reads the declared file CRC of a v2 tracefile from its
// trailer, and refuses what is not one: too short to hold magic and
// trailer, a retired or foreign magic, a cut or damaged trailer.
func TestFileCRC(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, fuzzTrace(t, 5, 2, 8)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	crc, ok := FileCRC(data)
	if want := binary.LittleEndian.Uint32(data[len(data)-4:]); !ok || crc != want {
		t.Fatalf("FileCRC = %#x, %v; want %#x, true", crc, ok, want)
	}
	flip := func(i int) []byte {
		b := append([]byte(nil), data...)
		b[i] ^= 1
		return b
	}
	for name, bad := range map[string][]byte{
		"empty":         nil,
		"magic only":    data[:len(magicV2)+len(trailer)+3],
		"magic":         flip(0),
		"trailer magic": flip(len(data) - 12),
		"cut":           data[:len(data)-1],
	} {
		if _, ok := FileCRC(bad); ok {
			t.Errorf("%s: FileCRC accepted it", name)
		}
	}
}
