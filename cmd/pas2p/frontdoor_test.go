package main

import (
	"path/filepath"
	"regexp"
	"testing"
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
