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
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/trace"
	"pas2p/internal/workload"
)

// TestAnalyzeStreamCLI drives `analyze` end to end over a synthetic
// v2 tracefile, read in place, and requires the phase-table JSON
// written under a 1-byte memory budget, which spills every phase
// matrix, to be byte-identical to the default budget's.
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

	resident := filepath.Join(dir, "resident.json")
	spilled := filepath.Join(dir, "spilled.json")
	if err := cmdAnalyze([]string{"-trace", path, "-o", resident}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	out, err := captureStdout(t, func() error {
		return cmdAnalyze([]string{"-trace", path, "-mem-budget", "1B", "-o", spilled})
	})
	if err != nil {
		t.Fatalf("analyze -mem-budget 1B: %v", err)
	}
	if !strings.Contains(out, "out-of-core: budget 1B, ") {
		t.Errorf("analyze -mem-budget 1B reports no spill:\n%s", out)
	}
	a, err := os.ReadFile(resident)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(spilled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("spilled phase table differs from the default budget's:\n%s\n---\n%s", a, b)
	}
}

// TestAnalyzeStreamFlagGuards: a memory budget that does not parse is
// rejected before the tracefile is opened.
func TestAnalyzeStreamFlagGuards(t *testing.T) {
	err := cmdAnalyze([]string{"-trace", "missing", "-mem-budget", "wat"})
	if err == nil || !strings.Contains(err.Error(), "-mem-budget") {
		t.Errorf("bogus -mem-budget: error %v, want a -mem-budget rejection", err)
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
		{"9.2e18", 9_200_000_000_000_000_000},
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
	for _, bad := range []string{"", "-1", "wat", "1XiB", "KiB", "NaN", "Inf", "-Inf", "1e30GiB", "9.3e18", "9223372036854775808"} {
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
	tr, err := trace.Decode(bytes.NewReader(buf.Bytes()))
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

// TestAnalyzeExplainNarrationV2: `analyze -explain` on a v2 tracefile,
// read in place through its rank streams, prints the Fig. 6 narration
// the phase package pins for the same small iterative run, line for
// line.
func TestAnalyzeExplainNarrationV2(t *testing.T) {
	d, err := machine.NewDeployment(machine.ClusterA(), 2, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	body := func(c *mpi.Comm) {
		n := c.Size()
		if c.Rank() == 0 {
			for s := 1; s < n; s++ {
				c.SendN(s, 99, 1<<12)
			}
		} else {
			c.RecvN(0, 99)
		}
		c.Barrier()
		for i := 0; i < 4; i++ {
			c.Compute(2e5)
			c.SendrecvN((c.Rank()+1)%n, 0, 2048, (c.Rank()+n-1)%n, 0)
			c.Allreduce([]float64{1}, mpi.Sum)
		}
	}
	res, err := mpi.Run(mpi.App{Name: "t", Procs: 2, Body: body}, mpi.RunConfig{Deployment: d, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, res.Recording.Trace()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.pas2p")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error { return cmdAnalyze([]string{"-trace", path, "-explain"}) })
	if err != nil {
		t.Fatalf("analyze -explain: %v", err)
	}
	want := strings.Join([]string{
		"  tick 6: repeat of tick-3 event -> step 4b, partition into [0,3) and [3,6)",
		"    window [0,3) is new -> phase 1 (4 events)",
		"    window [3,6) is new -> phase 2 (6 events)",
		"  tick 6: new startpoint (step 6)",
		"  tick 9: repeat of the startpoint event -> step 4a, close phase [6,9)",
		"    window [6,9) similar to phase 2 -> weight 2 (step 5)",
		"  tick 9: new startpoint (step 6)",
		"  tick 12: repeat of the startpoint event -> step 4a, close phase [9,12)",
		"    window [9,12) similar to phase 2 -> weight 3 (step 5)",
		"  tick 12: new startpoint (step 6)",
		"    window [12,15) similar to phase 2 -> weight 4 (step 5)",
	}, "\n") + "\n"
	if !strings.HasPrefix(out, want) {
		t.Fatalf("analyze -explain narration diverges:\n got:\n%s\nwant prefix:\n%s", out, want)
	}
}
