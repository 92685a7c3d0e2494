package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"pas2p/internal/apps"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/predict"
	"pas2p/internal/signature"
	"pas2p/internal/sigrepo"
)

// mustCapture runs one front door and returns what it printed.
func mustCapture(t *testing.T, f func() error) string {
	t.Helper()
	out, err := captureStdout(t, f)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// petIn extracts the PET figure a front door printed.
func petIn(t *testing.T, door, out string) string {
	t.Helper()
	m := regexp.MustCompile(`PET(?: \(Eq\.1\) :)? ([0-9.]+)s`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("%s printed no PET:\n%s", door, out)
	}
	return m[1]
}

// TestFrontDoorsAgree holds the three ways of predicting from the CLI
// to one answer: sign then execsig, repo add then repo predict, and
// the single predict command must report the same PET for the same
// app, ranks, base and target.
func TestFrontDoorsAgree(t *testing.T) {
	for _, app := range []string{"cg", "lu", "pop"} {
		t.Run(app, func(t *testing.T) {
			dir := t.TempDir()
			sig := filepath.Join(dir, app+".sig.json")
			common := []string{"-app", app, "-procs", "16"}
			mustCapture(t, func() error {
				return cmdSign(append([]string{"-base", "A", "-o", sig}, common...))
			})
			viaSig := petIn(t, "execsig", mustCapture(t, func() error {
				return cmdExecSig([]string{"-sig", sig, "-target", "B", "-no-ground-truth"})
			}))

			repo := filepath.Join(dir, "repo")
			mustCapture(t, func() error {
				return cmdRepo(append([]string{"add", "-dir", repo, "-base", "A"}, common...))
			})
			viaRepo := petIn(t, "repo predict", mustCapture(t, func() error {
				return cmdRepo(append([]string{"predict", "-dir", repo, "-target", "B"}, common...))
			}))

			viaPredict := petIn(t, "predict", mustCapture(t, func() error {
				return cmdPredict(append([]string{"-base", "A", "-target", "B", "-no-ground-truth"}, common...))
			}))
			if viaSig != viaPredict || viaRepo != viaPredict {
				t.Errorf("PET differs across front doors: execsig %ss, repo predict %ss, predict %ss",
					viaSig, viaRepo, viaPredict)
			}
		})
	}
}

// cheapWorkload maps each registered app to a workload that signs in
// well under a second at 16 ranks.
var cheapWorkload = map[string]string{
	"cg": "classA", "ep": "classA", "is": "classA", "bt": "classA",
	"sp": "classA", "lu": "classA", "ft": "classA",
	"sweep3d":      "sweep.150 3",
	"smg2000":      "-n 120 solver 3 iterations 90",
	"pop":          "synthetic20",
	"moldy":        "tip4p-short",
	"gromacs":      "d.lzm",
	"masterworker": "rounds2",
}

// TestSigningFrontDoorsMatchPredict holds the stored signatures to the
// one predict builds: for every registered app, the phase table that
// sign and repo add persist must equal, field for field, the table of
// the experiment predict runs on the same app, ranks and base, and
// executing either stored signature on the target must give predict's
// PET to the nanosecond. Printed PETs (TestFrontDoorsAgree) round to
// centiseconds and hide a difference in the traced run's cost.
func TestSigningFrontDoorsMatchPredict(t *testing.T) {
	names := apps.Names()
	if len(names) != len(cheapWorkload) {
		t.Fatalf("%d registered apps, %d with a cheap workload", len(names), len(cheapWorkload))
	}
	const procs = 16
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			wl := cheapWorkload[name]
			common := []string{"-app", name, "-procs", strconv.Itoa(procs), "-workload", wl, "-base", "A"}
			dir := t.TempDir()
			sigPath := filepath.Join(dir, name+".sig.json")
			mustCapture(t, func() error { return cmdSign(append([]string{"-o", sigPath}, common...)) })
			repoDir := filepath.Join(dir, "repo")
			mustCapture(t, func() error { return cmdRepo(append([]string{"add", "-dir", repoDir}, common...)) })

			f, err := os.Open(sigPath)
			if err != nil {
				t.Fatal(err)
			}
			viaSign, err := signature.LoadSaved(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			repo, err := sigrepo.Open(repoDir)
			if err != nil {
				t.Fatal(err)
			}
			entry, err := repo.Lookup(name, procs, wl)
			if err != nil {
				t.Fatal(err)
			}

			// The experiment cmdPredict runs, prediction only.
			app, err := apps.Make(name, procs, wl)
			if err != nil {
				t.Fatal(err)
			}
			base, err := machine.Deploy("A", 0, procs)
			if err != nil {
				t.Fatal(err)
			}
			target, err := machine.Deploy("B", 0, procs)
			if err != nil {
				t.Fatal(err)
			}
			out, err := predict.Run(predict.Experiment{
				App: app, Base: base, Target: target,
				EventOverhead: mpi.PAS2PEventOverhead, SkipTargetAET: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(out.Table)
			if err != nil {
				t.Fatal(err)
			}

			for door, saved := range map[string]*signature.Saved{"sign": viaSign, "repo add": entry.Saved} {
				got, err := json.Marshal(saved.Table)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s stored a different phase table than predict builds (base AET %d ns, predict's %d ns)",
						door, int64(saved.Table.BaseAET), int64(out.Table.BaseAET))
				}
				sig, err := saved.Reassemble(app)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sig.Execute(target)
				if err != nil {
					t.Fatal(err)
				}
				if res.PET != out.PET {
					t.Errorf("%s signature predicts PET %d ns on B, predict %d ns", door, int64(res.PET), int64(out.PET))
				}
			}
		})
	}
}
