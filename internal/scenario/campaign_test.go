package scenario

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"
	"time"

	"pas2p/internal/obs"
	"pas2p/internal/phase"
	"pas2p/internal/vtime"
)

// fastScenario is a quick real pipeline case (a masterworker run takes
// a few milliseconds end to end).
const fastScenario = `name: fast
app:
  name: masterworker
  ranks: 8
base: A
target: B
assert:
  pete_bound: 5.0
  phases_min: 1
`

// violatedScenario intentionally sets the PETE bound below BT's real
// prediction error (~1.8% A->B), the acceptance criterion's canonical
// failing campaign.
const violatedScenario = `name: tight
app:
  name: bt
  ranks: 8
base: A
target: B
assert:
  pete_bound: 0.5
`

func mustParse(t *testing.T, doc string) *Scenario {
	t.Helper()
	s, err := Parse("test.yaml", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCampaignPasses: a satisfiable suite passes every case and the
// observer sees the campaign counters.
func TestCampaignPasses(t *testing.T) {
	o := obs.New()
	doc, err := Run([]*Scenario{mustParse(t, fastScenario)}, Options{Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Failed != 0 || doc.Passed != 1 || len(doc.Cases) != 1 {
		t.Fatalf("doc: %+v", doc)
	}
	r := doc.Cases[0]
	if r.Status != StatusPass || r.PETEPercent == nil || r.Phases < 1 {
		t.Fatalf("case: %+v", r)
	}
	counters := o.Registry.Snapshot().Counters
	if counters["scenario.cases_total"] != 1 || counters["scenario.cases_passed"] != 1 {
		t.Errorf("campaign counters wrong: %v", counters)
	}
	if counters["scenario.assertions_checked"] != 2 {
		t.Errorf("assertions_checked = %d, want 2", counters["scenario.assertions_checked"])
	}
}

// TestCampaignViolatedAssertion pins the acceptance criterion: an
// intentionally violated bound fails the campaign, and the report
// names the scenario, the assertion, and the measured value.
func TestCampaignViolatedAssertion(t *testing.T) {
	doc, err := Run([]*Scenario{mustParse(t, violatedScenario)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Failed != 1 {
		t.Fatalf("campaign did not fail: %+v", doc)
	}
	r := doc.Cases[0]
	if r.Status != StatusFail {
		t.Fatalf("status = %q", r.Status)
	}
	fails := r.Failures()
	if len(fails) != 1 || fails[0].Assertion != "pete_bound" {
		t.Fatalf("failures: %+v", fails)
	}
	if !strings.Contains(fails[0].Got, "PETE") {
		t.Errorf("failure lacks the measured value: %+v", fails[0])
	}
	// The rendered table carries scenario, assertion and measurement.
	var buf bytes.Buffer
	PrintTable(&buf, doc)
	out := buf.String()
	for _, want := range []string{"tight/target=B", "FAIL", "pete_bound", "PETE"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output lacks %q:\n%s", want, out)
		}
	}
}

// TestCampaignJSONDeterministic pins the acceptance criterion: the
// same scenario set produces a byte-identical canonical JSON document
// on every run, at any worker count.
func TestCampaignJSONDeterministic(t *testing.T) {
	chaos := `name: det
app:
  name: masterworker
  ranks: 8
base: A
targets: [B, C]
faults:
  spec: loss=0.05,delay=0.1
  seeds: [1, 2]
assert:
  phases_min: 1
  determinism: true
`
	render := func(workers int) string {
		doc, err := run([]*Scenario{mustParse(t, chaos), mustParse(t, fastScenario)},
			Options{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, doc); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one := render(1)
	again := render(1)
	wide := render(4)
	if one != again {
		t.Fatalf("same campaign, different JSON:\n%s\nvs\n%s", one, again)
	}
	if one != wide {
		t.Fatalf("worker count changed the JSON document:\n%s\nvs\n%s", one, wide)
	}
	if strings.Contains(one, `"wall_ms": 1`) {
		t.Error("canonical document leaked a wall-clock value")
	}
}

// TestCampaignPanicIsolation: a panicking case must not take the
// runner down; it reports StatusPanic with the stack, and the other
// cases still run.
func TestCampaignPanicIsolation(t *testing.T) {
	orig := evalCaseFn
	defer func() { evalCaseFn = orig }()
	evalCaseFn = func(c Case, o *obs.Observer) CaseResult {
		if c.Scenario.Name == "fast" {
			panic("synthetic failure")
		}
		return orig(c, o)
	}
	ok := strings.Replace(strings.Replace(fastScenario, "name: fast", "name: ok", 1),
		"pete_bound: 5.0", "pete_bound: 99", 1)
	doc, err := Run([]*Scenario{mustParse(t, fastScenario), mustParse(t, ok)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Failed != 1 || doc.Passed != 1 {
		t.Fatalf("doc: passed %d failed %d", doc.Passed, doc.Failed)
	}
	var panicked *CaseResult
	for i := range doc.Cases {
		if doc.Cases[i].Scenario == "fast" {
			panicked = &doc.Cases[i]
		}
	}
	if panicked == nil || panicked.Status != StatusPanic {
		t.Fatalf("panic case: %+v", panicked)
	}
	if !strings.Contains(panicked.Error, "synthetic failure") ||
		!strings.Contains(panicked.Error, "campaign.go") {
		t.Errorf("panic error lacks message or stack: %q", panicked.Error)
	}
}

// TestCampaignTimeout: a case exceeding its wall budget reports
// StatusTimeout and fails the campaign.
func TestCampaignTimeout(t *testing.T) {
	orig := evalCaseFn
	defer func() { evalCaseFn = orig }()
	evalCaseFn = func(c Case, o *obs.Observer) CaseResult {
		time.Sleep(5 * time.Second)
		return orig(c, o)
	}
	doc, err := Run([]*Scenario{mustParse(t, fastScenario)},
		Options{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r := doc.Cases[0]
	if r.Status != StatusTimeout || doc.Failed != 1 {
		t.Fatalf("case: %+v", r)
	}
	if !strings.Contains(r.Error, "wall budget") {
		t.Errorf("timeout error: %q", r.Error)
	}
	// The scenario's own timeout overrides the campaign default.
	slow := mustParse(t, fastScenario+"timeout: 40ms\n")
	doc, err = Run([]*Scenario{slow}, Options{Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Cases[0].Status != StatusTimeout {
		t.Fatalf("scenario timeout not honoured: %+v", doc.Cases[0])
	}
}

// TestWriteJUnit: the XML parses, counts match, and a violated
// assertion surfaces as a <failure> naming assertion and measurement.
func TestWriteJUnit(t *testing.T) {
	doc, err := Run([]*Scenario{mustParse(t, violatedScenario), mustParse(t,
		strings.Replace(fastScenario, "name: fast", "name: good", 1))},
		Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJUnit(&buf, doc); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Tests    int `xml:"tests,attr"`
		Failures int `xml:"failures,attr"`
		Suites   []struct {
			Name  string `xml:"name,attr"`
			Cases []struct {
				Name     string `xml:"name,attr"`
				Failures []struct {
					Message string `xml:"message,attr"`
				} `xml:"failure"`
			} `xml:"testcase"`
		} `xml:"testsuite"`
	}
	if err := xml.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("JUnit output does not parse: %v\n%s", err, buf.String())
	}
	if parsed.Tests != 2 || parsed.Failures != 1 || len(parsed.Suites) != 2 {
		t.Fatalf("junit counts: %+v", parsed)
	}
	var failMsg string
	for _, s := range parsed.Suites {
		for _, c := range s.Cases {
			for _, f := range c.Failures {
				failMsg = f.Message
			}
		}
	}
	if !strings.Contains(failMsg, "pete_bound") || !strings.Contains(failMsg, "PETE") {
		t.Errorf("failure message lacks assertion/measurement: %q", failMsg)
	}
}

// TestCoverage: the coverage metric is the relevant rows' Eq. 1 mass
// over the base AET.
func TestCoverage(t *testing.T) {
	sec := func(s float64) vtime.Duration { return vtime.Duration(s * 1e9) }
	tb := &phase.Table{
		BaseAET: sec(100),
		Rows: []phase.TableRow{
			{PhaseID: 1, Weight: 10, PhaseET: sec(8), Relevant: true}, // 80s
			{PhaseID: 2, Weight: 1, PhaseET: sec(15), Relevant: false},
			{PhaseID: 3, Weight: 5, PhaseET: sec(1), Relevant: true}, // 5s
		},
	}
	if got := coverage(tb); got < 0.849 || got > 0.851 {
		t.Errorf("coverage = %v, want 0.85", got)
	}
	if coverage(nil) != 0 || coverage(&phase.Table{}) != 0 {
		t.Error("degenerate tables must report zero coverage")
	}
}

// TestRunEmptyCampaign: a campaign needs scenarios.
func TestRunEmptyCampaign(t *testing.T) {
	if _, err := Run(nil, Options{}); err == nil {
		t.Fatal("empty campaign accepted")
	}
}
