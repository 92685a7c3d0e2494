package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pas2p/internal/logical"
	"pas2p/internal/trace"
	"pas2p/internal/workload"
)

// TestAnalyzeStreamCLI drives `analyze -stream` end to end over a
// synthetic v2 tracefile and requires the emitted phase-table JSON to
// be byte-identical to the in-core run's.
func TestAnalyzeStreamCLI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "synth.pas2p")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Synthesize(f, workload.SynthSpec{Procs: 4, TargetEvents: 8_000, Seed: 9}); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	inCore := filepath.Join(dir, "incore.json")
	streamed := filepath.Join(dir, "streamed.json")
	if err := cmdAnalyze([]string{"-trace", path, "-o", inCore}); err != nil {
		t.Fatalf("analyze (in-core): %v", err)
	}
	// A 1-byte budget forces every phase matrix through the spill path.
	if err := cmdAnalyze([]string{"-trace", path, "-stream", "-mem-budget", "1B", "-o", streamed}); err != nil {
		t.Fatalf("analyze -stream: %v", err)
	}
	a, err := os.ReadFile(inCore)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("streamed phase table differs from in-core:\n%s\n---\n%s", a, b)
	}
}

// TestAnalyzeStreamFlagGuards: options that require the in-core trace
// must be rejected with -stream rather than silently ignored.
func TestAnalyzeStreamFlagGuards(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "f", "-stream", "-explain"},
		{"-trace", "f", "-stream", "-faults", "skew=1ms"},
		{"-trace", "f", "-stream", "-timeline", "t.json"},
	} {
		if err := cmdAnalyze(args); err == nil {
			t.Errorf("%v: want incompatibility error, got nil", args)
		}
	}
	if err := cmdAnalyze([]string{"-trace", "missing", "-stream", "-mem-budget", "wat"}); err == nil {
		t.Error("bogus -mem-budget accepted")
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"123", 123},
		{"1KiB", 1 << 10},
		{"64MiB", 64 << 20},
		{"2GiB", 2 << 30},
		{"1KB", 1_000},
		{"5MB", 5_000_000},
		{"3GB", 3_000_000_000},
		{"2K", 2 << 10},
		{"1M", 1 << 20},
		{"1G", 1 << 30},
		{"512B", 512},
		{" 16 MiB ", 16 << 20},
		{"1.5KiB", 1536},
	}
	for _, tc := range cases {
		got, err := parseBytes(tc.in)
		if err != nil {
			t.Errorf("parseBytes(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", "-1", "wat", "1XiB", "KiB"} {
		if _, err := parseBytes(bad); err == nil {
			t.Errorf("parseBytes(%q): want error, got nil", bad)
		}
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	ferr := f()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	return string(out), ferr
}

// TestAnalyzeExplainCLI: `analyze -explain` narrates the paper's Fig. 6
// steps from the one in-core analysis, reports the logical trace's
// tick count, and writes the same phase table as a plain run.
func TestAnalyzeExplainCLI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "synth.pas2p")
	var buf bytes.Buffer
	if _, err := workload.Synthesize(&buf, workload.SynthSpec{Procs: 4, TargetEvents: 600, Seed: 3}); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.DecodeAny(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	l, err := logical.Order(tr)
	if err != nil {
		t.Fatal(err)
	}

	plain := filepath.Join(dir, "plain.json")
	explained := filepath.Join(dir, "explained.json")
	plainOut, err := captureStdout(t, func() error { return cmdAnalyze([]string{"-trace", path, "-o", plain}) })
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	out, err := captureStdout(t, func() error { return cmdAnalyze([]string{"-trace", path, "-explain", "-o", explained}) })
	if err != nil {
		t.Fatalf("analyze -explain: %v", err)
	}
	header := fmt.Sprintf("application: %s, %d processes, %d events, %d ticks\n",
		tr.AppName, tr.Procs, len(tr.Events), l.NumTicks())
	for _, want := range []string{header, "  window [0,", "is new -> phase 1", "new startpoint (step 6)"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze -explain output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(plainOut, "step 6") || !strings.Contains(plainOut, header) {
		t.Errorf("plain analyze output narrates or lacks the header:\n%s", plainOut)
	}
	a, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(explained)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("analyze -explain changed the phase table:\n%s\n---\n%s", a, b)
	}
}
