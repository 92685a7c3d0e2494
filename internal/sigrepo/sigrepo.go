// Package sigrepo manages a directory of persisted signatures — the
// "performance metadata of an application" the paper's introduction
// proposes: the site keeps one signature per (application, process
// count, workload), and schedulers or users look execution-time
// predictions up by executing the stored signature on the machine at
// hand instead of re-running applications. The tracefile a signature
// came from can be stored next to it; signatures and tracefiles are
// two artefact kinds on one write, check, lookup, list and Fsck path.
//
// Because the stored artefacts, not live runs, are the system of
// record, the repository is built for crash safety and corruption
// detection:
//
//   - every write goes temp-file → fsync → rename → directory fsync
//     through the fsx seam, so a crash never leaves a half-written
//     entry visible;
//   - a MANIFEST.json journal records each entry's key, checksum and
//     size; readers verify entries lazily against their embedded
//     payload checksum and the manifest, skip corrupt files instead
//     of failing wholesale, and Fsck quarantines them and rebuilds
//     the manifest;
//   - concurrent writers serialize on a lock file, taken over at once
//     from a dead writer on the same host and otherwise once stale,
//     and transient I/O errors are retried with bounded backoff.
//
// Operational counters are published to an optional obs.Registry
// under repo.* names (verified, corrupt, quarantined, retries, …).
package sigrepo

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pas2p/internal/apps"
	"pas2p/internal/fsx"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/obs"
	"pas2p/internal/signature"
)

// Sentinel errors callers branch on (errors.Is). The service layer
// maps ErrNotFound to 404 and ErrCorrupt to a retryable 503: a
// corrupt entry heals after Fsck quarantines it and the signature is
// re-added, so "try again later" is the truthful answer.
var (
	// ErrNotFound marks a lookup of an identity with no stored entry.
	ErrNotFound = errors.New("entry not found")
	// ErrCorrupt marks an entry that exists but fails verification.
	ErrCorrupt = errors.New("entry corrupt")
)

const (
	manifestName = "MANIFEST.json"
	lockName     = "LOCK"
	// QuarantineDir is the subdirectory corrupt entries are moved to.
	QuarantineDir = "quarantine"
	sigSuffix     = ".sig.json"
	tmpPrefix     = ".tmp."
)

// Repo is a signature store rooted at a directory; each signature is
// one checksummed JSON file produced by signature.Save, each stored
// tracefile one checksummed v2 tracefile, journalled in the manifest.
type Repo struct {
	dir string
	fs  fsx.FS
	reg *obs.Registry
	obs *obs.Observer // flight-recorder events for durability incidents

	// Operational knobs, defaulted by open; tests shrink them.
	retryAttempts int           // bounded retry of transient write errors
	retryBackoff  time.Duration // base backoff between retries (doubled each)
	lockWait      time.Duration // how long Add/Fsck waits for the lock
	staleLockAge  time.Duration // locks older than this are taken over
}

// Open binds a repository to a directory on the real filesystem,
// creating it if needed.
func Open(dir string) (*Repo, error) {
	return OpenFS(dir, fsx.OS{}, nil)
}

// OpenFS binds a repository to a directory through an explicit
// filesystem seam (tests inject fault-injecting filesystems here) and
// an optional metrics registry for the repo.* counters.
func OpenFS(dir string, fs fsx.FS, reg *obs.Registry) (*Repo, error) {
	if dir == "" {
		return nil, fmt.Errorf("sigrepo: empty directory")
	}
	if fs == nil {
		fs = fsx.OS{}
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sigrepo: %w", err)
	}
	return &Repo{
		dir:           dir,
		fs:            fs,
		reg:           reg,
		retryAttempts: 3,
		retryBackoff:  5 * time.Millisecond,
		lockWait:      2 * time.Second,
		staleLockAge:  5 * time.Minute,
	}, nil
}

// SetObserver attaches an observer whose flight recorder receives one
// structured event per durability incident (quarantine, manifest
// rebuild, lock takeover, retried write). Call before sharing the repo
// across goroutines; a nil observer detaches.
func (r *Repo) SetObserver(o *obs.Observer) {
	r.obs = o
	if o != nil && o.Reg() != nil {
		r.reg = o.Reg()
	}
}

// bump adds to a repo.* counter when a registry is attached.
func (r *Repo) bump(name string, n int64) {
	if r.reg != nil && n != 0 {
		r.reg.Counter(name).Add(n)
	}
}

// event records a durability incident on the attached flight recorder.
func (r *Repo) event(kind, msg string) {
	r.obs.Event(kind, msg, -1, 0)
}

// jittered spreads a backoff interval over [d/2, d): equal jitter, so
// writers that collided once (lock contention, shared transient
// fault) do not retry in lockstep and collide again. The randomness
// is operational only — it moves wall-clock sleep times, never any
// fault decision or stored byte.
func jittered(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)))
}

// withRetry runs op, retrying transient failures with jittered
// exponential backoff up to the configured attempt bound.
func (r *Repo) withRetry(op func() error) error {
	var err error
	backoff := r.retryBackoff
	for attempt := 0; ; attempt++ {
		if err = op(); err == nil {
			return nil
		}
		if attempt >= r.retryAttempts {
			return err
		}
		r.bump("repo.retries", 1)
		r.event("repo.retry", fmt.Sprintf("transient write error, retrying: %v", err))
		time.Sleep(jittered(backoff))
		backoff *= 2
	}
}

// escapeComponent maps an arbitrary string to a filesystem-safe,
// injective encoding: bytes outside [a-zA-Z0-9.-] become _xx (two
// lowercase hex digits). '_' itself is escaped, so distinct inputs
// can never collide (the old lossy sanitisation mapped "a/b" and
// "a_b" to the same file).
func escapeComponent(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '.':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "_%02x", c)
		}
	}
	return b.String()
}

// kind is one type of stored artefact. A kind names its files and its
// repo.* counters and knows how to verify one file; everything else
// (write, check, look up, list, fsck) has one implementation over
// kinds.
type kind struct {
	suffix string // filename suffix after the identity
	tag    string // manifest Kind: "" for signatures, the original format
	noun   string // in messages
	// repo.* counters for writes, verified reads and corrupt reads.
	writes, verified, corrupt string
	// verify reads one whole stored file, checking the file's own
	// checksums as it streams, and returns its entry (*Entry or
	// *TraceEntry, carrying path) and the identity to journal.
	verify func(path string, r io.Reader) (any, manifestEntry, error)
}

var (
	sigKind = &kind{suffix: sigSuffix, noun: "signature",
		writes: "repo.writes", verified: "repo.verified", corrupt: "repo.corrupt",
		verify: verifySignature}
	traceKind = &kind{suffix: traceSuffix, tag: "trace", noun: "tracefile",
		writes: "repo.trace_writes", verified: "repo.trace_verified", corrupt: "repo.trace_corrupt",
		verify: verifyTracefile}
	// kinds is the scan order: signatures, then tracefiles.
	kinds = []*kind{sigKind, traceKind}
)

// key builds the canonical filename for an identity. The escaped
// components contain '_' only as an escape prefix, so the _p<procs>_
// separators stay unambiguous and the mapping is injective.
func (k *kind) key(appName string, procs int, workload string) string {
	return fmt.Sprintf("%s_p%d_%s%s", escapeComponent(appName), procs, escapeComponent(workload), k.suffix)
}

func verifySignature(path string, r io.Reader) (any, manifestEntry, error) {
	saved, err := signature.LoadSaved(r)
	if err != nil {
		return nil, manifestEntry{}, err
	}
	return &Entry{Path: path, Saved: saved},
		manifestEntry{App: saved.AppName, Procs: saved.Procs, Workload: saved.Workload}, nil
}

// hashCounter hashes and counts the bytes written to it.
type hashCounter struct {
	h hash.Hash
	n int64
}

func newHashCounter() *hashCounter { return &hashCounter{h: sha256.New()} }

func (c *hashCounter) Write(p []byte) (int, error) {
	c.h.Write(p)
	c.n += int64(len(p))
	return len(p), nil
}

func (c *hashCounter) sum() string { return hex.EncodeToString(c.h.Sum(nil)) }

// put stores one artefact under its identity: under the repo lock, it
// streams the bytes write produces into an atomic temp file (temp →
// fsync → rename → dir fsync) with bounded retry, hashing and counting
// them on the way, and journals the entry in the manifest. A failed
// put never leaves a partial entry visible.
func (r *Repo) put(k *kind, id manifestEntry, write func(io.Writer) error) (string, error) {
	unlock, err := r.acquireLock()
	if err != nil {
		return "", err
	}
	defer unlock()

	name := k.key(id.App, id.Procs, id.Workload)
	path := filepath.Join(r.dir, name)
	var hc *hashCounter
	if err := r.withRetry(func() error {
		hc = newHashCounter()
		return fsx.WriteFileAtomic(r.fs, path, func(w io.Writer) error {
			return write(io.MultiWriter(w, hc))
		})
	}); err != nil {
		return "", fmt.Errorf("sigrepo: writing %s: %w", path, err)
	}
	r.bump(k.writes, 1)

	m := r.loadManifestTolerant()
	id.SHA256, id.Size, id.Kind = hc.sum(), hc.n, k.tag
	m.Entries[name] = id
	if err := r.storeManifest(m); err != nil {
		return "", err
	}
	return path, nil
}

// identity is the key an artefact is stored and looked up under, with
// the workload resolved by apps.Workload: every front door that omits
// the workload names the app's default one. Entries stored under ""
// before that resolution still list and fsck, but no lookup finds them.
func identity(appName string, procs int, workload string) manifestEntry {
	return manifestEntry{App: appName, Procs: procs, Workload: apps.Workload(appName, workload)}
}

// Add stores a signature under its application identity. The entry is
// serialised in memory before the lock is taken, then stored by put.
func (r *Repo) Add(sig *signature.Signature, workload, baseCluster string) (string, error) {
	id := identity(sig.App.Name, sig.App.Procs, workload)
	var buf bytes.Buffer
	if err := sig.Save(&buf, id.Workload, baseCluster); err != nil {
		return "", err
	}
	return r.put(sigKind, id, func(w io.Writer) error {
		_, err := w.Write(buf.Bytes())
		return err
	})
}

// Entry describes one stored signature.
type Entry struct {
	Path  string
	Saved *signature.Saved
}

// Problem describes one entry the repository could not serve, or a
// journal inconsistency found while scanning. Corrupt entries are
// reported here instead of failing List wholesale.
type Problem struct {
	// Path is the offending file (or manifest entry).
	Path string
	// Kind classifies the problem: "corrupt" (entry fails its
	// checksum), "manifest-mismatch" (valid entry disagreeing with
	// the journal), "manifest-orphan" (journal entry with no file),
	// "manifest-corrupt" (unreadable journal), "stray-temp", or, from
	// Fsck, "unmanifested" (valid entry the journal lacked).
	Kind string
	// Err is the underlying error, when there is one.
	Err error
}

func (p Problem) String() string {
	if p.Err != nil {
		return fmt.Sprintf("%s: %s: %v", p.Kind, p.Path, p.Err)
	}
	return fmt.Sprintf("%s: %s", p.Kind, p.Path)
}

// MarshalJSON serves Err as its text under the same key (null when
// there is none): an error value marshals as {} and would drop the
// reason /v1/fsck reports.
func (p Problem) MarshalJSON() ([]byte, error) {
	var msg *string
	if p.Err != nil {
		s := p.Err.Error()
		msg = &s
	}
	return json.Marshal(struct {
		Path, Kind string
		Err        *string
	}{p.Path, p.Kind, msg})
}

// check streams one stored artefact through its kind's verify,
// hashing and counting the bytes as they pass, and cross-checks the
// manifest; it counts the outcome under the kind's verified or
// corrupt counter. A nil value means the file is corrupt. A non-nil
// value may still carry a manifest-mismatch problem: the file's own
// checksums are the authority, so it is served anyway. The returned
// identity, with the streamed hash and size, is what Fsck journals.
func (r *Repo) check(k *kind, name string, m *manifest) (any, manifestEntry, *Problem) {
	path := filepath.Join(r.dir, name)
	v, id, err := r.stream(k, path)
	if err != nil {
		r.bump(k.corrupt, 1)
		return nil, id, &Problem{Path: path, Kind: "corrupt", Err: err}
	}
	r.bump(k.verified, 1)
	if me, ok := m.entry(name); ok && (me.Size != id.Size || me.SHA256 != id.SHA256) {
		// Internally consistent but disagreeing with the journal
		// (stale manifest or swapped file).
		return v, id, &Problem{Path: path, Kind: "manifest-mismatch"}
	}
	return v, id, nil
}

// stream opens one file through the fsx seam and runs the kind's
// verify over it, then drains past what verify consumed so the hash
// and size cover the whole file, trailing bytes included, as the
// manifest journalled it.
func (r *Repo) stream(k *kind, path string) (any, manifestEntry, error) {
	f, err := r.fs.Open(path)
	if err != nil {
		return nil, manifestEntry{}, err
	}
	defer f.Close()
	hc := newHashCounter()
	tee := io.TeeReader(f, hc)
	v, id, err := k.verify(path, tee)
	if err == nil {
		_, err = io.Copy(io.Discard, tee)
	}
	if err != nil {
		return nil, manifestEntry{}, err
	}
	id.SHA256, id.Size, id.Kind = hc.sum(), hc.n, k.tag
	return v, id, nil
}

// lookup finds and verifies the stored artefact of kind k for an
// identity. A missing file fails with ErrNotFound; a corrupt one with
// ErrCorrupt and a description of the corruption, never a wrong value.
func (r *Repo) lookup(k *kind, appName string, procs int, workload string) (any, error) {
	workload = apps.Workload(appName, workload)
	name := k.key(appName, procs, workload)
	if _, err := r.fs.Stat(filepath.Join(r.dir, name)); err != nil {
		return nil, fmt.Errorf("sigrepo: no %s for %s/p%d/%q (%v): %w", k.noun, appName, procs, workload, err, ErrNotFound)
	}
	m, _ := r.loadManifestChecked()
	v, _, p := r.check(k, name, m)
	if v == nil {
		return nil, fmt.Errorf("sigrepo: %s for %s/p%d/%q is corrupt (%v); run fsck to quarantine it: %w",
			k.noun, appName, procs, workload, p.Err, ErrCorrupt)
	}
	return v, nil
}

// Lookup finds the stored signature for an application identity; ""
// names the app's default workload.
func (r *Repo) Lookup(appName string, procs int, workload string) (*Entry, error) {
	v, err := r.lookup(sigKind, appName, procs, workload)
	if err != nil {
		return nil, err
	}
	return v.(*Entry), nil
}

// found is one artefact file as check saw it.
type found struct {
	kind    *kind
	name    string
	val     any           // *Entry or *TraceEntry; nil when corrupt
	id      manifestEntry // identity, hash and size to journal
	problem *Problem
}

// survey is one pass over the repository directory: the journal, the
// stray temp files, every artefact of every kind checked against the
// journal, and the journal entries with no file.
type survey struct {
	m        *manifest // nil when missing or unreadable
	mProblem *Problem  // why the journal is unreadable
	temps    []string  // paths
	found    []found   // in kind order, names sorted
	orphans  []string  // paths
}

func (r *Repo) survey() (*survey, error) {
	ents, err := r.fs.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("sigrepo: scanning %s: %w", r.dir, err)
	}
	s := &survey{}
	s.m, s.mProblem = r.loadManifestChecked()
	names := make([][]string, len(kinds))
	have := make(map[string]bool, len(ents))
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(n, tmpPrefix) {
			s.temps = append(s.temps, filepath.Join(r.dir, n))
			continue
		}
		for i, k := range kinds {
			if strings.HasSuffix(n, k.suffix) {
				names[i] = append(names[i], n)
				have[n] = true
				break
			}
		}
	}
	sort.Strings(s.temps)
	for i, k := range kinds {
		sort.Strings(names[i])
		for _, n := range names[i] {
			v, id, p := r.check(k, n, s.m)
			s.found = append(s.found, found{kind: k, name: n, val: v, id: id, problem: p})
		}
	}
	if s.m != nil {
		for _, n := range sortedKeys(s.m.Entries) {
			if !have[n] {
				s.orphans = append(s.orphans, filepath.Join(r.dir, n))
			}
		}
	}
	return s, nil
}

// List returns every verifiable stored signature and tracefile, each
// sorted by filename, plus every problem found, once. Corrupt entries
// degrade gracefully: they are reported, never returned, and never
// fail the listing.
func (r *Repo) List() ([]Entry, []TraceEntry, []Problem, error) {
	s, err := r.survey()
	if err != nil {
		return nil, nil, nil, err
	}
	var sigs []Entry
	var traces []TraceEntry
	var problems []Problem
	if s.mProblem != nil {
		problems = append(problems, *s.mProblem)
	}
	for _, t := range s.temps {
		problems = append(problems, Problem{Path: t, Kind: "stray-temp"})
	}
	for _, f := range s.found {
		if f.problem != nil {
			problems = append(problems, *f.problem)
		}
		switch v := f.val.(type) {
		case *Entry:
			sigs = append(sigs, *v)
		case *TraceEntry:
			traces = append(traces, *v)
		}
	}
	for _, o := range s.orphans {
		problems = append(problems, Problem{Path: o, Kind: "manifest-orphan"})
	}
	return sigs, traces, problems, nil
}

// Predict reattaches the application code (via makeApp) to a stored
// signature and executes it on the target.
func (e *Entry) Predict(target *machine.Deployment,
	makeApp func(name string, procs int, workload string) (mpi.App, error)) (*signature.ExecResult, error) {
	app, err := makeApp(e.Saved.AppName, e.Saved.Procs, e.Saved.Workload)
	if err != nil {
		return nil, err
	}
	sig, err := e.Saved.Reassemble(app)
	if err != nil {
		return nil, err
	}
	return sig.Execute(target)
}

func sortedKeys(m map[string]manifestEntry) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
