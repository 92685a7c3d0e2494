package sigrepo

import (
	"fmt"
	"path/filepath"
	"strings"
)

// FsckReport summarises one repair pass over the repository.
type FsckReport struct {
	// Scanned is the number of entry files examined.
	Scanned int
	// Verified is how many passed full verification.
	Verified int
	// Corrupt is how many failed their checksum (all are quarantined).
	Corrupt int
	// Quarantined lists the destination paths of quarantined files.
	Quarantined []string
	// TempsRemoved counts orphaned temp files from crashed writers.
	TempsRemoved int
	// ManifestAdopted counts valid entries that were missing from the
	// journal and are now journalled.
	ManifestAdopted int
	// ManifestDropped counts journal entries whose file is gone.
	ManifestDropped int
	// ManifestRebuilt is true when the journal itself was unreadable
	// and had to be rebuilt from the surviving entries.
	ManifestRebuilt bool
	// TracesScanned/TracesVerified/TracesCorrupt mirror the signature
	// counters for stored tracefiles, which are verified by streaming
	// every checksum (header, per-block, whole-file) without
	// materialising events. Corrupt tracefiles are quarantined too.
	TracesScanned  int
	TracesVerified int
	TracesCorrupt  int
	// Problems itemises everything found.
	Problems []Problem
}

// String reports the pass. Its first line counts every artefact,
// signatures and tracefiles alike, as its quarantine count does; the
// traces line then gives the tracefiles' share.
func (rep *FsckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fsck: %d scanned, %d verified, %d corrupt (%d quarantined)",
		rep.Scanned+rep.TracesScanned, rep.Verified+rep.TracesVerified,
		rep.Corrupt+rep.TracesCorrupt, len(rep.Quarantined))
	if rep.TracesScanned > 0 {
		fmt.Fprintf(&b, "\n  traces   : %d scanned, %d verified, %d corrupt",
			rep.TracesScanned, rep.TracesVerified, rep.TracesCorrupt)
	}
	fmt.Fprintf(&b, "\n  manifest : %d adopted, %d dropped, rebuilt=%v",
		rep.ManifestAdopted, rep.ManifestDropped, rep.ManifestRebuilt)
	if rep.TempsRemoved > 0 {
		fmt.Fprintf(&b, "\n  cleaned  : %d stray temp files", rep.TempsRemoved)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(&b, "\n  - %s", p)
	}
	return b.String()
}

// tally returns the report's scanned, verified and corrupt counters
// for one artefact kind.
func (rep *FsckReport) tally(k *kind) (scanned, verified, corrupt *int) {
	if k == traceKind {
		return &rep.TracesScanned, &rep.TracesVerified, &rep.TracesCorrupt
	}
	return &rep.Scanned, &rep.Verified, &rep.Corrupt
}

// Fsck scans the repository, verifies every entry against its
// embedded checksums and the manifest, quarantines corrupt files under
// quarantine/, removes temp files left by crashed writers, and
// rebuilds the manifest to journal exactly the verified survivors.
// It takes the repo lock, so it is safe alongside concurrent Adds.
func (r *Repo) Fsck() (*FsckReport, error) {
	unlock, err := r.acquireLock()
	if err != nil {
		return nil, err
	}
	defer unlock()

	s, err := r.survey()
	if err != nil {
		return nil, err
	}
	rep := &FsckReport{}
	if s.mProblem != nil {
		rep.ManifestRebuilt = true
		rep.Problems = append(rep.Problems, *s.mProblem)
	}
	// Orphaned temp files are debris from crashed writers: the
	// rename never happened, so they hold no published data.
	for _, t := range s.temps {
		rep.Problems = append(rep.Problems, Problem{Path: t, Kind: "stray-temp"})
		if err := r.fs.Remove(t); err == nil {
			rep.TempsRemoved++
		}
	}

	rebuilt := newManifest()
	for _, f := range s.found {
		scanned, verified, corrupt := rep.tally(f.kind)
		*scanned++
		if f.problem != nil {
			rep.Problems = append(rep.Problems, *f.problem)
		}
		if f.val == nil {
			*corrupt++
			qpath, qerr := r.quarantine(f.name)
			if qerr != nil {
				return nil, qerr
			}
			rep.Quarantined = append(rep.Quarantined, qpath)
			r.bump("repo.quarantined", 1)
			r.event("repo.quarantine", "corrupt "+f.kind.noun+" quarantined: "+qpath)
			continue
		}
		*verified++
		// Re-journal from the file itself: the hash and size streamed
		// while checking it are the authority for the rebuilt manifest.
		rebuilt.Entries[f.name] = f.id
		if s.m != nil {
			if _, ok := s.m.Entries[f.name]; !ok {
				rep.ManifestAdopted++
				rep.Problems = append(rep.Problems, Problem{
					Path: filepath.Join(r.dir, f.name), Kind: "unmanifested"})
			}
		} else if s.mProblem == nil {
			// Legacy repository without a journal: everything valid
			// is adopted silently.
			rep.ManifestAdopted++
		}
	}
	for _, o := range s.orphans {
		rep.ManifestDropped++
		rep.Problems = append(rep.Problems, Problem{Path: o, Kind: "manifest-orphan"})
	}
	if err := r.storeManifest(rebuilt); err != nil {
		return nil, err
	}
	if rep.ManifestRebuilt {
		r.event("repo.manifest_rebuilt",
			fmt.Sprintf("manifest rebuilt from %d verified entries", len(rebuilt.Entries)))
	}
	return rep, nil
}

// quarantine moves a corrupt entry into QuarantineDir, never
// overwriting earlier quarantined generations of the same name.
func (r *Repo) quarantine(name string) (string, error) {
	qdir := filepath.Join(r.dir, QuarantineDir)
	if err := r.fs.MkdirAll(qdir, 0o755); err != nil {
		return "", fmt.Errorf("sigrepo: creating quarantine: %w", err)
	}
	dst := filepath.Join(qdir, name)
	for gen := 1; ; gen++ {
		if _, err := r.fs.Stat(dst); err != nil {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", name, gen))
	}
	if err := r.fs.Rename(filepath.Join(r.dir, name), dst); err != nil {
		return "", fmt.Errorf("sigrepo: quarantining %s: %w", name, err)
	}
	if err := r.fs.SyncDir(r.dir); err != nil {
		return "", err
	}
	return dst, nil
}
