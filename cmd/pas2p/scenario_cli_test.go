package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenarioCLIRoundTrip: validate then run a small suite through
// the real subcommand, with JSON and JUnit artifacts landing on disk,
// and a violated bound turning into a non-zero campaign error that
// names the failure count.
func TestScenarioCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	good := `name: cli-smoke
app:
  name: masterworker
  ranks: 8
base: A
target: B
assert:
  pete_bound: 5.0
  phases_min: 1
`
	if err := os.WriteFile(filepath.Join(dir, "smoke.yaml"), []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdScenario([]string{"validate", dir}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	jsonPath := filepath.Join(dir, "out", "results.json")
	junitPath := filepath.Join(dir, "out", "results.xml")
	if err := os.MkdirAll(filepath.Dir(jsonPath), 0o755); err != nil {
		t.Fatal(err)
	}
	err := cmdScenario([]string{"run", dir, "-json", jsonPath, "-junit", junitPath})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, p := range []string{jsonPath, junitPath} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("artifact missing: %v", err)
		}
		if !strings.Contains(string(data), "cli-smoke") {
			t.Errorf("%s does not mention the scenario", p)
		}
	}

	// A misspelled assertion key fails validation with a position.
	typo := strings.Replace(good, "name: cli-smoke", "name: cli-typo", 1)
	typo = strings.Replace(typo, "pete_bound:", "pete_boundd:", 1)
	if err := os.WriteFile(filepath.Join(dir, "typo.yaml"), []byte(typo), 0o644); err != nil {
		t.Fatal(err)
	}
	err = cmdScenario([]string{"validate", dir})
	if err == nil || !strings.Contains(err.Error(), "pete_boundd") {
		t.Fatalf("typo not rejected: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, "typo.yaml")); err != nil {
		t.Fatal(err)
	}

	// A violated bound exits the run path with a failure count.
	tight := strings.Replace(good, "name: cli-smoke", "name: cli-tight", 1)
	tight = strings.Replace(tight, "phases_min: 1", "phases_min: 99", 1)
	if err := os.WriteFile(filepath.Join(dir, "tight.yaml"), []byte(tight), 0o644); err != nil {
		t.Fatal(err)
	}
	err = cmdScenario([]string{"run", dir})
	if err == nil || !strings.Contains(err.Error(), "cases failed") {
		t.Fatalf("violated campaign did not fail: %v", err)
	}
}
