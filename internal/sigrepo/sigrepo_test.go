package sigrepo

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pas2p/internal/apps"
	"pas2p/internal/fsx"
	"pas2p/internal/logical"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/obs"
	"pas2p/internal/phase"
	"pas2p/internal/signature"
)

func buildSig(t testing.TB, name string, procs int, workload string) *signature.Signature {
	t.Helper()
	app, err := apps.Make(name, procs, workload)
	if err != nil {
		t.Fatal(err)
	}
	base, err := machine.NewDeployment(machine.ClusterA(), procs, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpi.Run(app, mpi.RunConfig{Deployment: base, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	l, err := logical.Order(res.Recording.Trace())
	if err != nil {
		t.Fatal(err)
	}
	an, err := phase.Extract(l, phase.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := an.BuildTable(1)
	if err != nil {
		t.Fatal(err)
	}
	br, err := signature.Build(app, tb, base, signature.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return br.Signature
}

// fastKnobs shrinks the lock/retry timings so failure-path tests don't
// spend wall-clock sleeping.
func fastKnobs(r *Repo) *Repo {
	r.retryBackoff = time.Millisecond
	r.lockWait = 50 * time.Millisecond
	// Wide margin above lockWait so a slow machine can't age a fresh
	// lock into takeover range while a test is still waiting on it.
	r.staleLockAge = time.Minute
	return r
}

func TestRepoAddListLookupPredict(t *testing.T) {
	reg := obs.NewRegistry()
	repo, err := OpenFS(t.TempDir(), nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	sig := buildSig(t, "cg", 8, "classA")
	path, err := repo.Add(sig, "classA", "Cluster A")
	if err != nil {
		t.Fatal(err)
	}
	if path == "" {
		t.Fatal("empty path")
	}
	sig2 := buildSig(t, "moldy", 8, "tip4p-short")
	if _, err := repo.Add(sig2, "tip4p-short", "Cluster A"); err != nil {
		t.Fatal(err)
	}

	entries, _, problems, err := repo.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("list has %d entries, want 2", len(entries))
	}
	if len(problems) != 0 {
		t.Fatalf("healthy repo reported problems: %v", problems)
	}
	if got := reg.Counter("repo.verified").Value(); got != 2 {
		t.Errorf("repo.verified = %d, want 2", got)
	}

	e, err := repo.Lookup("cg", 8, "classA")
	if err != nil {
		t.Fatal(err)
	}
	if e.Saved.AppName != "cg" || e.Saved.Procs != 8 {
		t.Errorf("lookup returned %+v", e.Saved)
	}

	target, err := machine.NewDeployment(machine.ClusterB(), 8, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Predict(target, apps.Make)
	if err != nil {
		t.Fatal(err)
	}
	if res.PET <= 0 || res.SET <= 0 {
		t.Error("degenerate prediction from stored signature")
	}
}

func TestRepoLookupMissing(t *testing.T) {
	repo, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Lookup("cg", 64, "classC"); err == nil {
		t.Error("missing entry should fail")
	}
}

func TestRepoOpenValidation(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty dir should fail")
	}
}

func TestRepoKeyEscaping(t *testing.T) {
	k := sigKind.key("smg2000", 64, "-n 200 solver 3")
	if k != "smg2000_p64_-n_20200_20solver_203.sig.json" {
		t.Errorf("key = %q", k)
	}
	// Safe characters pass through untouched.
	if got := sigKind.key("cg.v2", 8, "classA"); got != "cg.v2_p8_classA.sig.json" {
		t.Errorf("key = %q", got)
	}
}

// TestRepoKeyCollisionRegression pins the fix for the old lossy
// sanitisation, which mapped every unsafe byte to '_' so "a/b" and
// "a_b" (and "a b") collided onto one file and silently overwrote
// each other's signatures.
func TestRepoKeyCollisionRegression(t *testing.T) {
	workloads := []string{"a/b", "a_b", "a b", "a_2fb", "a__b"}
	seen := map[string]string{}
	for _, wl := range workloads {
		k := sigKind.key("app", 8, wl)
		if prev, dup := seen[k]; dup {
			t.Errorf("workloads %q and %q collide on key %q", prev, wl, k)
		}
		seen[k] = wl
	}
	// Same property across the app-name/workload boundary: the
	// separator must not be forgeable from inside a component.
	if sigKind.key("app_p8_x", 8, "y") == sigKind.key("app", 8, "x_p8_y") {
		t.Error("separator forgery collides keys")
	}
}

// errCreateFS fails every Create call, simulating a full or failing
// disk at publish time.
type errCreateFS struct {
	fsx.FS
}

func (f errCreateFS) Create(name string) (fsx.File, error) {
	return nil, errors.New("injected create failure")
}

// TestFailedAddLeavesNoPartialEntry is the crash-consistency
// regression: when the write fails, no *.sig.json (and no temp
// debris) may appear in the repository, and the lock must be
// released.
func TestFailedAddLeavesNoPartialEntry(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenFS(dir, errCreateFS{fsx.OS{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fastKnobs(repo)
	sig := buildSig(t, "cg", 8, "classA")
	if _, err := repo.Add(sig, "classA", "Cluster A"); err == nil {
		t.Fatal("Add over a failing filesystem should error")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), sigSuffix) {
			t.Errorf("failed Add left partial entry %s", e.Name())
		}
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Errorf("failed Add left temp file %s", e.Name())
		}
		if e.Name() == lockName {
			t.Errorf("failed Add left the lock held")
		}
	}
	// The repo stays usable: a later Add over a healthy filesystem
	// succeeds in the same directory.
	repo2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo2.Add(sig, "classA", "Cluster A"); err != nil {
		t.Fatalf("recovery Add failed: %v", err)
	}
}

func TestListSkipsAndReportsCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	repo, err := OpenFS(dir, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	good := buildSig(t, "cg", 8, "classA")
	if _, err := repo.Add(good, "classA", "Cluster A"); err != nil {
		t.Fatal(err)
	}
	bad := buildSig(t, "moldy", 8, "tip4p-short")
	badPath, err := repo.Add(bad, "tip4p-short", "Cluster A")
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte behind the repository's back.
	data, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x42
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	entries, _, problems, err := repo.List()
	if err != nil {
		t.Fatalf("List must not fail on corrupt entries: %v", err)
	}
	if len(entries) != 1 || entries[0].Saved.AppName != "cg" {
		t.Fatalf("List = %d entries, want only the intact one", len(entries))
	}
	found := false
	for _, p := range problems {
		if p.Kind == "corrupt" && p.Path == badPath {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupt entry not reported; problems = %v", problems)
	}
	if got := reg.Counter("repo.corrupt").Value(); got != 1 {
		t.Errorf("repo.corrupt = %d, want 1", got)
	}

	// Lookup of the corrupt identity fails loudly, naming fsck.
	if _, err := repo.Lookup("moldy", 8, "tip4p-short"); err == nil || !strings.Contains(err.Error(), "fsck") {
		t.Errorf("corrupt lookup error = %v", err)
	}
	// The intact identity still serves.
	if _, err := repo.Lookup("cg", 8, "classA"); err != nil {
		t.Errorf("intact lookup failed: %v", err)
	}
}

func TestFsckQuarantinesAndRebuilds(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	repo, err := OpenFS(dir, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	good := buildSig(t, "cg", 8, "classA")
	if _, err := repo.Add(good, "classA", "Cluster A"); err != nil {
		t.Fatal(err)
	}
	bad := buildSig(t, "moldy", 8, "tip4p-short")
	badPath, err := repo.Add(bad, "tip4p-short", "Cluster A")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one entry, strand a temp file, and orphan a manifest row.
	if err := os.WriteFile(badPath, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, tmpPrefix+"crashed.sig.json")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := repo.loadManifestTolerant()
	m.Entries["ghost_p4_gone.sig.json"] = manifestEntry{App: "ghost", Procs: 4}
	if err := repo.storeManifest(m); err != nil {
		t.Fatal(err)
	}

	rep, err := repo.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 2 || rep.Verified != 1 || rep.Corrupt != 1 {
		t.Fatalf("fsck counts wrong: %+v", rep)
	}
	if len(rep.Quarantined) != 1 || !strings.Contains(rep.Quarantined[0], QuarantineDir) {
		t.Fatalf("quarantine paths = %v", rep.Quarantined)
	}
	if rep.TempsRemoved != 1 || rep.ManifestDropped != 1 {
		t.Fatalf("fsck cleanup wrong: %+v", rep)
	}
	if _, err := os.Stat(rep.Quarantined[0]); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(badPath); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still in repo: %v", err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray temp survived fsck: %v", err)
	}
	if got := reg.Counter("repo.quarantined").Value(); got != 1 {
		t.Errorf("repo.quarantined = %d, want 1", got)
	}

	// After repair the repo lists clean.
	entries, _, problems, err := repo.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || len(problems) != 0 {
		t.Fatalf("post-fsck list: %d entries, problems %v", len(entries), problems)
	}
	// Repeated quarantines of the same name don't clobber: corrupt the
	// survivor twice through re-add.
	if rep2, err := repo.Fsck(); err != nil || rep2.Corrupt != 0 {
		t.Fatalf("second fsck on clean repo: %+v, %v", rep2, err)
	}
}

func TestFsckRebuildsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	repo, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sig := buildSig(t, "cg", 8, "classA")
	if _, err := repo.Add(sig, "classA", "Cluster A"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// List degrades (reports the journal, serves the data)...
	entries, _, problems, err := repo.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("corrupt manifest must not hide entries: %d", len(entries))
	}
	hasManifestProblem := false
	for _, p := range problems {
		if p.Kind == "manifest-corrupt" {
			hasManifestProblem = true
		}
	}
	if !hasManifestProblem {
		t.Fatalf("corrupt manifest unreported: %v", problems)
	}
	// ...and Fsck rebuilds it.
	rep, err := repo.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ManifestRebuilt || rep.Verified != 1 {
		t.Fatalf("fsck report: %+v", rep)
	}
	if _, _, problems, _ := repo.List(); len(problems) != 0 {
		t.Fatalf("problems after manifest rebuild: %v", problems)
	}
}

func TestFsckAdoptsUnmanifestedEntries(t *testing.T) {
	dir := t.TempDir()
	repo, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sig := buildSig(t, "cg", 8, "classA")
	if _, err := repo.Add(sig, "classA", "Cluster A"); err != nil {
		t.Fatal(err)
	}
	// Simulate a legacy repo: drop the journal entirely.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	rep, err := repo.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified != 1 || rep.ManifestAdopted != 1 {
		t.Fatalf("fsck of legacy repo: %+v", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("manifest not recreated: %v", err)
	}
}

// TestEmptyWorkloadIsTheDefault: "" names the app's default workload
// on every Add and Lookup, so one signature answers both names. An
// entry stored under "" before that resolution still lists and fscks,
// but no lookup reaches it.
func TestEmptyWorkloadIsTheDefault(t *testing.T) {
	dir := t.TempDir()
	repo, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	def := apps.Lookup("cg").DefaultWorkload
	path, err := repo.Add(buildSig(t, "cg", 4, ""), "", "Cluster A")
	if err != nil {
		t.Fatal(err)
	}
	if want := "cg_p4_" + def + sigSuffix; filepath.Base(path) != want {
		t.Errorf("stored as %s, want %s", filepath.Base(path), want)
	}
	e, err := repo.Lookup("cg", 4, def)
	if err != nil {
		t.Fatal(err)
	}
	if e.Saved.Workload != def {
		t.Errorf("stored workload %q, want %q", e.Saved.Workload, def)
	}
	if _, err := repo.Add(buildSig(t, "cg", 8, def), def, "Cluster A"); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Lookup("cg", 8, ""); err != nil {
		t.Fatalf("lookup without a workload misses the default's entry: %v", err)
	}

	// An entry an older build stored under "".
	var buf bytes.Buffer
	if err := buildSig(t, "cg", 2, "").Save(&buf, "", "Cluster A"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cg_p2_"+sigSuffix), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Lookup("cg", 2, ""); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup of cg/2 = %v, want ErrNotFound", err)
	}
	entries, _, problems, err := repo.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || len(problems) != 0 {
		t.Errorf("list: %d entries, problems %v; want 3 and none", len(entries), problems)
	}
	rep, err := repo.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified != 3 || rep.ManifestAdopted != 1 || len(rep.Quarantined) != 0 {
		t.Errorf("fsck: %+v", rep)
	}
}

func TestLockContentionAndStaleTakeover(t *testing.T) {
	dir := t.TempDir()
	repo, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fastKnobs(repo)
	lockPath := filepath.Join(dir, lockName)
	if err := os.WriteFile(lockPath, []byte("pid 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Fresh foreign lock: acquisition times out.
	now := time.Now()
	if err := os.Chtimes(lockPath, now, now); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.acquireLock(); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("fresh lock should block: %v", err)
	}

	// Stale lock: taken over.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(lockPath, old, old); err != nil {
		t.Fatal(err)
	}
	unlock, err := repo.acquireLock()
	if err != nil {
		t.Fatalf("stale lock not taken over: %v", err)
	}
	unlock()
	if _, err := os.Stat(lockPath); !os.IsNotExist(err) {
		t.Error("release did not remove the lock file")
	}
}

// TestLockOfDeadProcessTakenOver: a LOCK left by a killed writer
// names this host and a pid that no longer exists, and Fsck takes it
// over at once instead of waiting out staleLockAge. A fresh lock that
// names another host, or a live pid, still blocks.
func TestLockOfDeadProcessTakenOver(t *testing.T) {
	host, err := os.Hostname()
	if err != nil {
		t.Skipf("no hostname: %v", err)
	}
	child := exec.Command(os.Args[0], "-test.run=^$")
	if err := child.Run(); err != nil {
		t.Fatal(err)
	}
	dead := child.Process.Pid

	for _, tc := range []struct {
		name, lock string
		takeover   bool
	}{
		{"dead-pid-this-host", fmt.Sprintf("pid %d\nhost %s\nacquired x\n", dead, host), true},
		{"dead-pid-other-host", fmt.Sprintf("pid %d\nhost %s-elsewhere\n", dead, host), false},
		{"live-pid-this-host", fmt.Sprintf("pid %d\nhost %s\n", os.Getpid(), host), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := obs.NewRegistry()
			repo, err := OpenFS(dir, nil, reg)
			if err != nil {
				t.Fatal(err)
			}
			fastKnobs(repo) // a 50 ms wait, so only a takeover lets Fsck in
			if err := os.WriteFile(filepath.Join(dir, lockName), []byte(tc.lock), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = repo.Fsck()
			if tc.takeover && err != nil {
				t.Fatalf("Fsck waited on a dead writer's lock: %v", err)
			}
			if !tc.takeover && (err == nil || !strings.Contains(err.Error(), "locked")) {
				t.Fatalf("Fsck broke a lock it must respect: %v", err)
			}
			want := int64(0)
			if tc.takeover {
				want = 1
			}
			if got := reg.Counter("repo.lock_takeovers").Value(); got != want {
				t.Errorf("repo.lock_takeovers = %d, want %d", got, want)
			}
		})
	}
}

// TestConcurrentAddsSerialize races several writers against one
// repository: the lock file must serialize them so every entry and a
// consistent manifest survive.
func TestConcurrentAddsSerialize(t *testing.T) {
	repo, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ids := []chaosIdentity{{"cg", 8, "classA"}, {"ep", 8, "classA"}, {"moldy", 8, "tip4p-short"}}
	sigs := make([]*signature.Signature, len(ids))
	for i, id := range ids {
		sigs[i] = buildSig(t, id.app, id.procs, id.workload)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = repo.Add(sigs[i], ids[i].workload, "Cluster A")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent add %s: %v", ids[i].app, err)
		}
	}
	entries, _, problems, err := repo.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(ids) || len(problems) != 0 {
		t.Fatalf("after concurrent adds: %d entries, problems %v", len(entries), problems)
	}
}

// flakyFS fails the first n Create calls then recovers, exercising the
// bounded-retry path.
type flakyFS struct {
	fsx.FS
	failures int
}

func (f *flakyFS) Create(name string) (fsx.File, error) {
	if f.failures > 0 {
		f.failures--
		return nil, errors.New("transient failure")
	}
	return f.FS.Create(name)
}

func TestAddRetriesTransientFailures(t *testing.T) {
	reg := obs.NewRegistry()
	repo, err := OpenFS(t.TempDir(), &flakyFS{FS: fsx.OS{}, failures: 2}, reg)
	if err != nil {
		t.Fatal(err)
	}
	fastKnobs(repo)
	sig := buildSig(t, "cg", 8, "classA")
	if _, err := repo.Add(sig, "classA", "Cluster A"); err != nil {
		t.Fatalf("Add should survive 2 transient failures: %v", err)
	}
	if got := reg.Counter("repo.retries").Value(); got < 2 {
		t.Errorf("repo.retries = %d, want >= 2", got)
	}
	if _, err := repo.Lookup("cg", 8, "classA"); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentLookupAddFsckRace hammers one repository with readers
// (Lookup), writers (Add, re-adding the same identities so the lock
// stays hot), and a concurrent Fsck loop. Run under -race this pins
// the writer-lock discipline: no torn reads, no lost entries, no
// spurious quarantines — and contended acquisitions surface in the
// repo.lock_wait_ns counter instead of vanishing.
func TestConcurrentLookupAddFsckRace(t *testing.T) {
	reg := obs.NewRegistry()
	repo, err := OpenFS(t.TempDir(), fsx.OS{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ids := []chaosIdentity{{"cg", 4, "classA"}, {"ep", 4, "classA"}}
	sigs := make([]*signature.Signature, len(ids))
	for i, id := range ids {
		sigs[i] = buildSig(t, id.app, id.procs, id.workload)
		if _, err := repo.Add(sigs[i], id.workload, "Cluster A"); err != nil {
			t.Fatal(err)
		}
	}

	// Deterministic contention first: hold the lock, start a writer,
	// release — the writer's wait must land on the counter.
	release, err := repo.acquireLock()
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, aerr := repo.Add(sigs[0], ids[0].workload, "Cluster A")
		blocked <- aerr
	}()
	time.Sleep(20 * time.Millisecond)
	release()
	if aerr := <-blocked; aerr != nil {
		t.Fatalf("add after lock release: %v", aerr)
	}
	if got := reg.Counter("repo.lock_wait_ns").Value(); got <= 0 {
		t.Fatalf("repo.lock_wait_ns = %d after a contended add, want > 0", got)
	}

	// The storm: 4 re-adders, 4 lookupers, 1 fsck loop, all concurrent.
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				id := ids[(w+i)%len(ids)]
				if _, err := repo.Add(sigs[(w+i)%len(ids)], id.workload, "Cluster A"); err != nil {
					errCh <- fmt.Errorf("add %s: %w", id.app, err)
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := ids[(w+i)%len(ids)]
				e, err := repo.Lookup(id.app, id.procs, id.workload)
				if err != nil {
					errCh <- fmt.Errorf("lookup %s: %w", id.app, err)
					continue
				}
				if e.Saved.AppName != id.app || e.Saved.Procs != id.procs {
					errCh <- fmt.Errorf("lookup %s returned %s/p%d", id.app, e.Saved.AppName, e.Saved.Procs)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			rep, err := repo.Fsck()
			if err != nil {
				errCh <- fmt.Errorf("fsck: %w", err)
				continue
			}
			if len(rep.Quarantined) != 0 {
				errCh <- fmt.Errorf("fsck quarantined %v on a healthy repo", rep.Quarantined)
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	entries, _, problems, err := repo.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(ids) || len(problems) != 0 {
		t.Fatalf("after the storm: %d entries (want %d), problems %v", len(entries), len(ids), problems)
	}
}
