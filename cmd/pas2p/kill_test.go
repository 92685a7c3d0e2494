package main

import (
	"bytes"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pas2p/internal/sigrepo"
)

// TestMain runs the command line instead of the tests when the test
// binary is started under the name pas2p, so a test can run real
// pas2p processes and kill them.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "pas2p" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pas2pCmd returns a command that runs this test binary as pas2p.
func pas2pCmd(t *testing.T, args ...string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Args[0] = "pas2p"
	cmd.Stdout, cmd.Stderr = &out, &out
	return cmd, &out
}

// runPas2p runs pas2p to completion and returns its output; it must
// exit 0.
func runPas2p(t *testing.T, args ...string) string {
	t.Helper()
	cmd, out := pas2pCmd(t, args...)
	if err := cmd.Run(); err != nil {
		t.Fatalf("pas2p %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return out.String()
}

// TestRepoAddSurvivesKill is the real-kill durability proof of the
// repository: `repo add -keep-trace` processes are SIGKILLed at seeded
// points across a healthy run's duration, and once while the tracefile
// is being staged under the lock. After each kill, `repo fsck` must
// succeed at once (a dead writer's lock is taken over, not waited out)
// and a fresh `repo add` must succeed; at the end the stored signature
// predicts exactly what the healthy one did and the stored tracefile
// verifies.
func TestRepoAddSurvivesKill(t *testing.T) {
	dir := t.TempDir()
	id := []string{"-dir", dir, "-app", "lu", "-procs", "64", "-workload", "classB"}
	add := append([]string{"repo", "add", "-keep-trace"}, id...)
	predict := append([]string{"repo", "predict", "-target", "B"}, id...)
	// fsx stages each write in ".tmp.<name>" next to its destination.
	staging := filepath.Join(dir, ".tmp.lu_p64_classB.trace.pas2p")

	start := time.Now()
	runPas2p(t, add...)
	healthy := time.Since(start)
	want := runPas2p(t, predict...)

	const spread = 7
	rng := rand.New(rand.NewSource(30))
	lockLeft := 0
	for i := 0; i <= spread; i++ {
		cmd, _ := pas2pCmd(t, add...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		if i < spread {
			// One kill in each seventh of the last healthy run, at a
			// seeded point; the machine's load moves where that lands.
			time.Sleep(time.Duration((float64(i) + rng.Float64()) / spread * float64(healthy)))
		} else {
			// The last kill is aimed inside the lock, so the takeover
			// is exercised whatever the timing of the others.
			for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
				if _, err := os.Stat(staging); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("repo add never staged its tracefile")
				}
			}
		}
		cmd.Process.Kill()
		cmd.Wait() // reaped: the killed pid no longer exists
		if _, err := os.Stat(filepath.Join(dir, "LOCK")); err == nil {
			lockLeft++
		}
		runPas2p(t, "repo", "fsck", "-dir", dir)
		start := time.Now()
		runPas2p(t, add...)
		healthy = time.Since(start)
	}

	if got := runPas2p(t, predict...); got != want {
		t.Errorf("after %d kills repo predict printed\n%s\nwant the healthy run's\n%s", spread+1, got, want)
	}
	repo, err := sigrepo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LookupTrace("lu", 64, "classB"); err != nil {
		t.Errorf("stored tracefile after kills: %v", err)
	}
	if lockLeft == 0 {
		t.Errorf("none of %d kills left LOCK behind; the test proved nothing", spread+1)
	}
	t.Logf("%d of %d kills left LOCK behind", lockLeft, spread+1)
}
