package sigrepo

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"pas2p/internal/fsx"
)

// manifestVersion is the journal format; bump on layout changes.
const manifestVersion = 1

// manifestEntry journals one stored artefact: its identity, the
// SHA-256 of the file's bytes, and its size. Size is a cheap first
// filter; the hash is the cross-check against swapped or rotted
// files whose embedded checksum still holds.
type manifestEntry struct {
	App      string `json:"app"`
	Procs    int    `json:"procs"`
	Workload string `json:"workload"`
	SHA256   string `json:"sha256"`
	Size     int64  `json:"size"`
	// Kind distinguishes artefact types: empty for signatures (the
	// original journal format, kept for compatibility) and "trace" for
	// stored tracefiles.
	Kind string `json:"kind,omitempty"`
}

// manifest is the repository journal: filename → entry metadata. It
// is rewritten atomically after every Add and rebuilt by Fsck; the
// per-file embedded checksums remain the authority, so a lost or
// corrupt manifest degrades verification, never data.
type manifest struct {
	FormatVersion int                      `json:"formatVersion"`
	Entries       map[string]manifestEntry `json:"entries"`
}

func newManifest() *manifest {
	return &manifest{FormatVersion: manifestVersion, Entries: map[string]manifestEntry{}}
}

// entry returns the journal's record of name; a nil manifest (missing
// or unreadable journal) records nothing.
func (m *manifest) entry(name string) (manifestEntry, bool) {
	if m == nil {
		return manifestEntry{}, false
	}
	me, ok := m.Entries[name]
	return me, ok
}

// loadManifestChecked reads the journal; a missing manifest returns
// (nil, nil) — legacy repositories have none — and an unreadable or
// corrupt one returns (nil, problem) so callers can report it.
func (r *Repo) loadManifestChecked() (*manifest, *Problem) {
	path := filepath.Join(r.dir, manifestName)
	if _, err := r.fs.Stat(path); err != nil {
		return nil, nil
	}
	data, err := r.fs.ReadFile(path)
	if err != nil {
		return nil, &Problem{Path: path, Kind: "manifest-corrupt", Err: err}
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, &Problem{Path: path, Kind: "manifest-corrupt", Err: err}
	}
	if m.FormatVersion != manifestVersion {
		return nil, &Problem{Path: path, Kind: "manifest-corrupt",
			Err: fmt.Errorf("unsupported manifest version %d", m.FormatVersion)}
	}
	if m.Entries == nil {
		m.Entries = map[string]manifestEntry{}
	}
	return &m, nil
}

// loadManifestTolerant reads the journal for updating: anything
// missing or unreadable starts a fresh one (Fsck and the next Add
// re-journal what the directory actually holds).
func (r *Repo) loadManifestTolerant() *manifest {
	if m, _ := r.loadManifestChecked(); m != nil {
		return m
	}
	return newManifest()
}

// storeManifest writes the journal atomically, with bounded retry.
func (r *Repo) storeManifest(m *manifest) error {
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("sigrepo: encoding manifest: %w", err)
	}
	path := filepath.Join(r.dir, manifestName)
	if err := r.withRetry(func() error {
		return fsx.WriteBytesAtomic(r.fs, path, append(data, '\n'))
	}); err != nil {
		return fmt.Errorf("sigrepo: writing manifest: %w", err)
	}
	return nil
}
