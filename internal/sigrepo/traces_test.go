package sigrepo

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pas2p/internal/faults"
	"pas2p/internal/fsx"
	"pas2p/internal/obs"
	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

// synthTrace builds a small deterministic trace: compute-separated
// collectives only, so it validates without send/recv relation
// plumbing.
func synthTrace(t *testing.T, app string, procs, events int) *trace.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(procs)*1e6 + int64(events)))
	rec := trace.StartRecording(app, procs)
	for p := range procs {
		var tp vtime.Time
		for i := 0; i < events; i++ {
			tp += vtime.Time(rng.Intn(900) + 1)
			rec.Recorder(p).Record(&trace.Event{
				Kind: trace.Collective, Involved: int32(procs), CollOp: 1, Peer: -1,
				Size: int64(rng.Intn(4096)), Enter: tp, Exit: tp + vtime.Time(rng.Intn(90)),
			})
		}
	}
	rec.Close(vtime.Duration(rng.Intn(1e9)))
	return rec.Trace()
}

// readStored decodes the stored tracefile LookupTrace verifies.
func readStored(repo *Repo, app string, procs int, workload string) (*trace.Trace, error) {
	te, err := repo.LookupTrace(app, procs, workload)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(te.Path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Decode(f)
}

func TestTraceAddLookupReadList(t *testing.T) {
	repo, err := OpenFS(t.TempDir(), nil, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	tr := synthTrace(t, "cg/dev_run", 4, 700) // name needs escaping
	path, err := repo.AddTrace(tr, "class A")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != traceKind.key("cg/dev_run", 4, "class A") {
		t.Fatalf("unexpected path %s", path)
	}

	te, err := repo.LookupTrace("cg/dev_run", 4, "class A")
	if err != nil {
		t.Fatal(err)
	}
	if te.Meta.AppName != "cg/dev_run" || te.Meta.Procs != 4 ||
		te.Meta.Events != uint64(len(tr.Events)) || te.Workload != "class A" {
		t.Fatalf("lookup meta mismatch: %+v", te)
	}

	got, err := readStored(repo, "cg/dev_run", 4, "class A")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("stored trace does not round-trip")
	}

	sigs, entries, problems, err := repo.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 || len(entries) != 1 {
		t.Fatalf("List: %d trace entries, problems %v", len(entries), problems)
	}

	// The trace entry must not confuse the signature listing or fsck.
	if len(sigs) != 0 {
		t.Fatalf("List with trace present: %d signatures", len(sigs))
	}
	rep, err := repo.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TracesScanned != 1 || rep.TracesVerified != 1 || rep.TracesCorrupt != 0 {
		t.Fatalf("fsck trace counters: %+v", rep)
	}
	if rep.Scanned != 0 || rep.Corrupt != 0 {
		t.Fatalf("trace entry leaked into signature counters: %+v", rep)
	}
}

func TestTraceCorruptionQuarantined(t *testing.T) {
	for _, mut := range []struct {
		name   string
		mutate func([]byte)
	}{
		// One flipped byte in an event block.
		{"block-flip", func(data []byte) { data[len(data)/2] ^= 0x10 }},
		// PAS2PTR2 → PAS2PTR1: the retired layout's magic.
		{"magic-downgrade", func(data []byte) { data[7] ^= 3 }},
	} {
		t.Run(mut.name, func(t *testing.T) {
			dir := t.TempDir()
			repo, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			tr := synthTrace(t, "ep", 2, 1200)
			path, err := repo.AddTrace(tr, "classB")
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mut.mutate(data)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			if _, err := repo.LookupTrace("ep", 2, "classB"); err == nil {
				t.Fatal("corrupt trace served by LookupTrace")
			} else if !strings.Contains(err.Error(), "offset") {
				t.Fatalf("corruption error lacks offset: %v", err)
			}

			rep, err := repo.Fsck()
			if err != nil {
				t.Fatal(err)
			}
			if rep.TracesCorrupt != 1 || len(rep.Quarantined) != 1 {
				t.Fatalf("fsck did not quarantine corrupt trace: %+v", rep)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt trace still in place: %v", err)
			}
			if _, err := os.Stat(rep.Quarantined[0]); err != nil {
				t.Fatalf("quarantined copy missing: %v", err)
			}

			// After repair: clean repository, second fsck is a no-op.
			rep2, err := repo.Fsck()
			if err != nil {
				t.Fatal(err)
			}
			if rep2.TracesScanned != 0 || rep2.TracesCorrupt != 0 || len(rep2.Problems) != 0 {
				t.Fatalf("second fsck found new damage: %+v", rep2)
			}
		})
	}
}

// TestFsckReportCountsEveryArtefact: on a repository with one bad
// signature beside a good one and one bad tracefile, every count on
// the report's first line covers both kinds, so its corrupt count
// matches its quarantine count.
func TestFsckReportCountsEveryArtefact(t *testing.T) {
	repo, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Add(buildSig(t, "cg", 8, "classA"), "classA", "Cluster A"); err != nil {
		t.Fatal(err)
	}
	badSig, err := repo.Add(buildSig(t, "moldy", 8, "tip4p-short"), "tip4p-short", "Cluster A")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(badSig, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	badTrace, err := repo.AddTrace(synthTrace(t, "ep", 2, 1200), "classB")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(badTrace)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(badTrace, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := repo.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(rep.String(), "\n")
	want := []string{
		"fsck: 3 scanned, 1 verified, 2 corrupt (2 quarantined)",
		"  traces   : 1 scanned, 0 verified, 1 corrupt",
	}
	if len(lines) < 2 || !reflect.DeepEqual(lines[:2], want) {
		t.Fatalf("report opens\n%s\nwant\n%s", rep, strings.Join(want, "\n"))
	}
}

func TestParseTraceKeyRoundTrip(t *testing.T) {
	cases := []struct {
		app      string
		procs    int
		workload string
	}{
		{"cg", 8, "classA"},
		{"a/b_p", 16, "wl_p2_x"}, // separators inside components
		{"app name", 4, "päper"}, // spaces and UTF-8
		{"_p", 1, "_p"},          // pure separator lookalikes
		{"x", 1048576, "y.z-0"},  // max procs, safe punctuation
	}
	for _, c := range cases {
		name := traceKind.key(c.app, c.procs, c.workload)
		app, procs, wl, err := parseTraceKey(name)
		if err != nil {
			t.Fatalf("parse %q: %v", name, err)
		}
		if app != c.app || procs != c.procs || wl != c.workload {
			t.Fatalf("parse %q = (%q,%d,%q), want (%q,%d,%q)",
				name, app, procs, wl, c.app, c.procs, c.workload)
		}
	}
}

// TestTraceChaosFsck extends the durability property to stored
// tracefiles: every corruption the injector bakes into a trace write
// must be quarantined by Fsck or provably harmless (the entry still
// round-trips bit-identically).
func TestTraceChaosFsck(t *testing.T) {
	tr := synthTrace(t, "lu", 4, 2500)
	injected := int64(0)
	for _, seed := range []int64{3, 11, 77} {
		dir := t.TempDir()
		ffs, err := faults.NewFaultFS(fsx.OS{}, faults.FSConfig{
			Seed: seed, TornRate: 0.4, TruncRate: 0.4, FlipRate: 0.4,
		})
		if err != nil {
			t.Fatal(err)
		}
		dirty, err := OpenFS(dir, ffs, nil)
		if err != nil {
			t.Fatal(err)
		}
		fastKnobs(dirty)
		if _, err := dirty.AddTrace(tr, "classC"); err != nil {
			t.Fatalf("seed %d: AddTrace: %v", seed, err)
		}
		rpt := ffs.FSReport()
		injected += rpt.TornWrites + rpt.Truncations + rpt.Flips

		repo, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := repo.Fsck()
		if err != nil {
			t.Fatalf("seed %d: fsck: %v", seed, err)
		}
		corrupted := map[string]bool{}
		for _, p := range ffs.CorruptedPaths() {
			if strings.HasSuffix(p, traceSuffix) {
				corrupted[filepath.Base(p)] = true
			}
		}
		quarantined := map[string]bool{}
		for _, q := range rep.Quarantined {
			quarantined[filepath.Base(q)] = true
		}
		for base := range corrupted {
			if quarantined[base] {
				continue
			}
			got, err := readStored(repo, "lu", 4, "classC")
			if err != nil {
				t.Fatalf("seed %d: %s neither quarantined nor readable: %v", seed, base, err)
			}
			if !reflect.DeepEqual(got, tr) {
				t.Fatalf("seed %d: corrupt trace %s survived fsck and reads wrong", seed, base)
			}
		}
	}
	if injected == 0 {
		t.Fatal("fault schedule injected nothing; rates too low to prove anything")
	}
}

// TestLookupErrorsTyped: both kinds' lookups fail with the sentinels
// the service maps to 404 and 503.
func TestLookupErrorsTyped(t *testing.T) {
	dir := t.TempDir()
	repo, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LookupTrace("ep", 2, "classB"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing trace: %v, want ErrNotFound", err)
	}
	if _, err := repo.Lookup("ep", 2, "classB"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing signature: %v, want ErrNotFound", err)
	}
	path, err := repo.AddTrace(synthTrace(t, "ep", 2, 300), "classB")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LookupTrace("ep", 2, "classB"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated trace: %v, want ErrCorrupt", err)
	}
	sigPath := filepath.Join(dir, sigKind.key("ep", 2, "classB"))
	if err := os.WriteFile(sigPath, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Lookup("ep", 2, "classB"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("torn signature: %v, want ErrCorrupt", err)
	}
}
