package sigrepo

// Stored tracefiles. A site that keeps signatures usually wants the
// traced run they came from — to re-extract phases with different
// knobs, or to audit a prediction — so the repository journals binary
// tracefiles next to the signatures as a second artefact kind: same
// identity scheme, same write, check, lookup, list and Fsck paths.
//
// Tracefiles are orders of magnitude larger than signatures, so the
// verification path never slurps them: reads go through the fsx Open
// seam into trace.VerifyStream, which checks the header, every block
// CRC and the whole-file CRC block-by-block without materialising a
// single event.

import (
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"

	"pas2p/internal/trace"
)

const traceSuffix = ".trace.pas2p"

// unescapeComponent inverts escapeComponent.
func unescapeComponent(s string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '_' {
			b.WriteByte(s[i])
			continue
		}
		if i+2 >= len(s) {
			return "", fmt.Errorf("sigrepo: truncated escape in %q", s)
		}
		v, err := strconv.ParseUint(s[i+1:i+3], 16, 8)
		if err != nil {
			return "", fmt.Errorf("sigrepo: bad escape in %q: %w", s, err)
		}
		b.WriteByte(byte(v))
		i += 2
	}
	return b.String(), nil
}

// parseTraceKey recovers (app, procs, workload) from a trace filename.
// The first "_p" is unambiguous: escaped components contain '_' only
// as an _xx hex escape, and 'p' is not a hex digit.
func parseTraceKey(name string) (app string, procs int, workload string, err error) {
	s := strings.TrimSuffix(name, traceSuffix)
	i := strings.Index(s, "_p")
	if i < 0 {
		return "", 0, "", fmt.Errorf("sigrepo: unparseable trace name %q", name)
	}
	appEsc, rest := s[:i], s[i+2:]
	j := strings.IndexByte(rest, '_')
	if j < 0 {
		return "", 0, "", fmt.Errorf("sigrepo: unparseable trace name %q", name)
	}
	procs, err = strconv.Atoi(rest[:j])
	if err != nil {
		return "", 0, "", fmt.Errorf("sigrepo: unparseable trace name %q: %w", name, err)
	}
	if app, err = unescapeComponent(appEsc); err != nil {
		return "", 0, "", err
	}
	if workload, err = unescapeComponent(rest[j+1:]); err != nil {
		return "", 0, "", err
	}
	return app, procs, workload, nil
}

// TraceEntry describes one stored tracefile after verification.
type TraceEntry struct {
	Path     string
	Workload string
	// Meta is the verified tracefile header (app, procs, event count,
	// AET); the events themselves were not materialised.
	Meta trace.Meta
}

// AddTrace stores a tracefile under its application identity. The
// trace is encoded straight into the atomic temp file through the
// parallel block codec — it is never serialised to memory first — and
// journalled with the SHA-256 of the streamed bytes.
func (r *Repo) AddTrace(t *trace.Trace, workload string) (string, error) {
	return r.put(traceKind, identity(t.AppName, t.Procs, workload), func(w io.Writer) error {
		return trace.EncodeWith(w, t, trace.CodecOptions{Reg: r.reg})
	})
}

// verifyTracefile streams a stored tracefile through every checksum
// (header, per-block, whole-file) without materialising an event. The
// file does not carry its workload; the filename does.
func verifyTracefile(path string, r io.Reader) (any, manifestEntry, error) {
	meta, err := trace.VerifyStream(r)
	if err != nil {
		return nil, manifestEntry{}, err
	}
	_, _, workload, _ := parseTraceKey(filepath.Base(path))
	return &TraceEntry{Path: path, Workload: workload, Meta: meta},
		manifestEntry{App: meta.AppName, Procs: meta.Procs, Workload: workload}, nil
}

// LookupTrace finds and fully verifies the stored tracefile for an
// application identity without materialising its events.
func (r *Repo) LookupTrace(appName string, procs int, workload string) (*TraceEntry, error) {
	v, err := r.lookup(traceKind, appName, procs, workload)
	if err != nil {
		return nil, err
	}
	return v.(*TraceEntry), nil
}
