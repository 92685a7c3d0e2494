package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pas2p/internal/sigrepo"
	"pas2p/internal/trace"
)

// TestRejectBadArgs drives every subcommand through its flag parser
// with malformed input. Unknown flags and trailing positional
// arguments — which flag.Parse silently ignores — must both produce an
// error naming the subcommand, and -h must surface flag.ErrHelp so
// main can exit 0.
func TestRejectBadArgs(t *testing.T) {
	cases := []struct {
		name string
		cmd  func([]string) error
		args []string
		want string // substring of the returned error
	}{
		{"apps/unknown-flag", cmdApps, []string{"-bogus"}, "not defined"},
		{"apps/trailing", cmdApps, []string{"extra"}, "unexpected argument"},
		{"clusters/trailing", cmdClusters, []string{"junk"}, "unexpected argument"},
		{"trace/trailing", cmdTrace, []string{"-app", "cg", "junk"}, "unexpected argument"},
		{"trace/unknown-flag", cmdTrace, []string{"-nope"}, "not defined"},
		{"analyze/trailing", cmdAnalyze, []string{"-trace", "f", "junk"}, "unexpected argument"},
		{"analyze/bad-faults", cmdAnalyze, []string{"-trace", "f", "-faults", "bogus=1"}, "unknown key"},
		{"inspect/unknown-flag", cmdInspect, []string{"-bogus"}, "not defined"},
		{"inspect/negative-offset", cmdInspect, []string{"-trace", "f", "-proc", "0", "-offset=-3"}, "-offset -3 is negative"},
		{"inspect/negative-n", cmdInspect, []string{"-trace", "f", "-proc", "0", "-n=-1"}, "-n -1 is negative"},
		{"inspect/offset-overflow", cmdInspect, []string{"-trace", "f", "-proc", "0", "-offset", "9223372036854775807", "-n", "5"},
			"-offset 9223372036854775807 plus -n 5 overflows"},
		{"render/unknown-flag", cmdRender, []string{"-bogus"}, "not defined"},
		{"render/narrow-width", cmdRender, []string{"-trace", "f", "-width", "1"}, "-width 1 leaves no room"},
		{"render/zero-width", cmdRender, []string{"-trace", "f", "-width", "0"}, "-width 0 leaves no room"},
		{"render/zero-max-events", cmdRender, []string{"-trace", "f", "-max-events", "0"}, "-max-events 0 is not positive"},
		{"render/negative-max-events", cmdRender, []string{"-trace", "f", "-max-events=-5"}, "-max-events -5 is not positive"},
		{"aet/unknown-flag", cmdAET, []string{"-nope"}, "not defined"},
		{"predict/trailing", cmdPredict, []string{"-app", "cg", "zzz"}, "unexpected argument"},
		{"predict/bad-faults", cmdPredict, []string{"-app", "cg", "-faults", "loss=2"}, "loss"},
		{"predict/unknown-flag", cmdPredict, []string{"-app", "cg", "-bogus"}, "not defined"},
		{"predict/unknown-fault-key", cmdPredict, []string{"-app", "cg", "-faults", "bogus=1"}, "unknown key"},
		{"predict/no-app", cmdPredict, []string{"-seed", "3"}, "-app is required"},
		{"predict/huge-procs", cmdPredict, []string{"-app", "cg", "-procs", "1099511627776"}, "rank count"},
		{"predict/cores-beyond-target", cmdPredict, []string{"-app", "cg", "-procs", "8", "-cores", "65"}, "core restriction"},
		{"sign/unknown-flag", cmdSign, []string{"-x"}, "not defined"},
		{"execsig/unknown-flag", cmdExecSig, []string{"-wat"}, "not defined"},
		{"repo/trailing", cmdRepo, []string{"list", "extra"}, "unexpected argument"},
		{"repo/unknown-sub", cmdRepo, []string{"frobnicate"}, "unknown subcommand"},
		{"repo/fsck-trailing", cmdRepo, []string{"fsck", "extra"}, "unexpected argument"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			old := cliErrOut
			cliErrOut = &buf
			defer func() { cliErrOut = old }()

			err := tc.cmd(tc.args)
			if err == nil {
				t.Fatalf("%v: want error containing %q, got nil", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%v: error %q does not contain %q", tc.args, err, tc.want)
			}
			if errors.Is(err, flag.ErrHelp) {
				t.Fatalf("%v: parse failure must not be ErrHelp", tc.args)
			}
		})
	}
}

// TestRepoCLIAddVerifyFsck drives the repository subcommands end to
// end: add -verify stores and re-checks an entry, a corrupted file is
// survived by list and repaired by fsck, and predict serves the
// surviving entry afterwards.
func TestRepoCLIAddVerifyFsck(t *testing.T) {
	dir := t.TempDir()
	if err := cmdRepo([]string{"add", "-dir", dir, "-app", "cg", "-procs", "8", "-workload", "classA", "-verify"}); err != nil {
		t.Fatalf("repo add -verify: %v", err)
	}
	if err := cmdRepo([]string{"add", "-dir", dir, "-app", "ep", "-procs", "8", "-workload", "classA", "-verify"}); err != nil {
		t.Fatalf("repo add -verify: %v", err)
	}

	// Corrupt one stored entry behind the CLI's back.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "ep_") && strings.HasSuffix(e.Name(), ".sig.json") {
			victim = filepath.Join(dir, e.Name())
		}
	}
	if victim == "" {
		t.Fatal("stored ep entry not found")
	}
	if err := os.WriteFile(victim, []byte(`{"formatVersion":2,"payloadSHA256":"00","payload":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	// list must survive the corruption, fsck must repair it.
	if err := cmdRepo([]string{"list", "-dir", dir}); err != nil {
		t.Fatalf("repo list over corrupt entry: %v", err)
	}
	if err := cmdRepo([]string{"fsck", "-dir", dir}); err != nil {
		t.Fatalf("repo fsck: %v", err)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Error("fsck left the corrupt entry in place")
	}
	if err := cmdRepo([]string{"predict", "-dir", dir, "-app", "cg", "-procs", "8", "-workload", "classA", "-target", "B"}); err != nil {
		t.Fatalf("repo predict after fsck: %v", err)
	}
}

// TestRepoAddKeepTraceMatchesTrace: repo add -keep-trace -verify
// stores the signed run's tracefile, and it must decode to the same
// trace as the one pas2p trace writes for the same app, cluster and
// ranks (both charge mpi.PAS2PEventOverhead per event). pas2p trace
// must print the size of the file it wrote.
func TestRepoAddKeepTraceMatchesTrace(t *testing.T) {
	dir := t.TempDir()
	repoDir := filepath.Join(dir, "repo")
	run := []string{"-app", "cg", "-procs", "8", "-workload", "classA"}
	mustCapture(t, func() error {
		return cmdRepo(append([]string{"add", "-dir", repoDir, "-base", "A", "-keep-trace", "-verify"}, run...))
	})
	path := filepath.Join(dir, "cg.pas2p")
	out := mustCapture(t, func() error { return cmdTrace(append([]string{"-cluster", "A", "-o", path}, run...)) })
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("tracefile: %s (%d bytes)\n", path, st.Size()); !strings.Contains(out, want) {
		t.Errorf("pas2p trace printed\n%s\nwant the line %q", out, want)
	}

	repo, err := sigrepo.Open(repoDir)
	if err != nil {
		t.Fatal(err)
	}
	te, err := repo.LookupTrace("cg", 8, "classA")
	if err != nil {
		t.Fatal(err)
	}
	sf, err := os.Open(te.Path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	stored, err := trace.Decode(sf)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	written, err := trace.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored.Events) == 0 {
		t.Fatal("stored tracefile has no events")
	}
	if !reflect.DeepEqual(stored, written) {
		t.Errorf("repo add -keep-trace stored %d events of %s/%d, pas2p trace wrote %d: the traces differ",
			len(stored.Events), stored.AppName, stored.Procs, len(written.Events))
	}
}

// TestRetiredTracefileRefused: every command that reads a tracefile
// refuses the committed compressed (Z2) one with ErrRetiredFormat,
// analyze on the in-place path included.
func TestRetiredTracefileRefused(t *testing.T) {
	const z2 = "../../internal/trace/testdata/golden_z2.pas2p"
	for name, cmd := range map[string]func([]string) error{
		"analyze": cmdAnalyze, "inspect": cmdInspect, "render": cmdRender,
	} {
		_, err := captureStdout(t, func() error { return cmd([]string{"-trace", z2}) })
		if !errors.Is(err, trace.ErrRetiredFormat) {
			t.Errorf("%s: err = %v, want ErrRetiredFormat", name, err)
		}
	}
}

// TestRenderFailureWritesNothing: a render refused after the trace is
// read (here an empty window, -from past -to) creates no SVG and
// leaves an existing one as it was; a good render then replaces it.
func TestRenderFailureWritesNothing(t *testing.T) {
	const in = "../../internal/trace/testdata/golden_v2_occurrence.pas2p"
	dir := t.TempDir()
	fresh, kept := filepath.Join(dir, "fresh.svg"), filepath.Join(dir, "kept.svg")
	if err := os.WriteFile(kept, []byte("earlier drawing"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{fresh, kept} {
		_, err := captureStdout(t, func() error { return cmdRender([]string{"-trace", in, "-o", out, "-from", "2s", "-to", "1s"}) })
		if err == nil || !strings.Contains(err.Error(), "empty time window") {
			t.Fatalf("%s: err = %v, want the empty-window refusal", filepath.Base(out), err)
		}
	}
	if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed render left %s behind (stat: %v)", fresh, err)
	}
	if b, err := os.ReadFile(kept); err != nil || string(b) != "earlier drawing" {
		t.Errorf("failed render changed the existing SVG to %q (%v)", b, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("failed renders left %d files in the output directory, want the one kept", len(entries))
	}
	if _, err := captureStdout(t, func() error { return cmdRender([]string{"-trace", in, "-o", kept}) }); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(kept); !bytes.HasPrefix(b, []byte("<svg")) {
		t.Errorf("render wrote %.20q, want an SVG", b)
	}
}

// TestHelpFlag checks -h produces usage text and the sentinel error.
func TestHelpFlag(t *testing.T) {
	for _, tc := range []struct {
		name string
		cmd  func([]string) error
		args []string
	}{
		{"predict", cmdPredict, []string{"-h"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			old := cliErrOut
			cliErrOut = &buf
			defer func() { cliErrOut = old }()

			if err := tc.cmd(tc.args); !errors.Is(err, flag.ErrHelp) {
				t.Fatalf("-h: want flag.ErrHelp, got %v", err)
			}
			if !strings.Contains(buf.String(), "Usage of") {
				t.Fatalf("-h printed no usage text: %q", buf.String())
			}
		})
	}
}

// TestUsagePrintedOnce asserts a parse failure writes the usage text to
// cliErrOut exactly once (the flag package's own copy goes to Discard).
func TestUsagePrintedOnce(t *testing.T) {
	var buf bytes.Buffer
	old := cliErrOut
	cliErrOut = &buf
	defer func() { cliErrOut = old }()

	if err := cmdPredict([]string{"-bogus"}); err == nil {
		t.Fatal("want parse error")
	}
	if n := strings.Count(buf.String(), "Usage of"); n != 1 {
		t.Fatalf("usage printed %d times, want 1:\n%s", n, buf.String())
	}
}
