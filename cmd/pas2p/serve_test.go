package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pas2p/internal/obs"
	"pas2p/internal/obs/obshttp"
)

// withServeHooks installs lifecycle hooks for one command run and
// restores the previous hooks (and crash-dump state) afterwards.
func withServeHooks(t *testing.T, onStart, onDone func(s *obshttp.Server)) {
	t.Helper()
	oldStart, oldDone, oldFlight := serveStartHook, serveDoneHook, activeFlight
	serveStartHook, serveDoneHook = onStart, onDone
	t.Cleanup(func() {
		serveStartHook, serveDoneHook, activeFlight = oldStart, oldDone, oldFlight
	})
}

// promSampleRe matches one exposition-format sample line: metric name,
// optional {labels}, and a value. Label values may contain only the
// three legal escapes.
var promSampleRe = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\[\\"n]|[^"\\\n])*",?)*\})? [^ ]+( [0-9]+)?$`)

// checkPromBody validates every line of a /metrics scrape against the
// exposition grammar and returns the set of sample names seen.
func checkPromBody(t *testing.T, body string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promSampleRe.MatchString(line) {
			t.Errorf("line %d is not valid Prometheus exposition text: %q", ln+1, line)
			continue
		}
		names[strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]] = true
	}
	return names
}

func healthStatus(t *testing.T, s *obshttp.Server) string {
	t.Helper()
	body, err := s.Fetch("/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	return h.Status
}

// TestAnalyzeServeLiveTelemetry runs `pas2p analyze -serve 127.0.0.1:0`
// against a freshly traced app: while the run is live /healthz says
// ready and /metrics is spec-valid Prometheus text with the runtime
// gauges; after the run /healthz flips to done and the span summaries
// cover the analysis stages.
func TestAnalyzeServeLiveTelemetry(t *testing.T) {
	dir := t.TempDir()
	tf := filepath.Join(dir, "cg.pas2p")
	if err := cmdTrace([]string{"-app", "cg", "-procs", "8", "-o", tf}); err != nil {
		t.Fatalf("trace: %v", err)
	}
	started, finished := false, false
	withServeHooks(t,
		func(s *obshttp.Server) {
			started = true
			if got := healthStatus(t, s); got != "ready" {
				t.Errorf("live /healthz status = %q, want ready", got)
			}
			body, err := s.Fetch("/metrics")
			if err != nil {
				t.Fatalf("GET /metrics: %v", err)
			}
			names := checkPromBody(t, string(body))
			if !names["pas2p_runtime_goroutines"] {
				t.Errorf("live /metrics is missing runtime gauges; got %d samples", len(names))
			}
		},
		func(s *obshttp.Server) {
			finished = true
			if got := healthStatus(t, s); got != "done" {
				t.Errorf("post-run /healthz status = %q, want done", got)
			}
			body, err := s.Fetch("/metrics")
			if err != nil {
				t.Fatalf("GET /metrics: %v", err)
			}
			names := checkPromBody(t, string(body))
			for _, want := range []string{
				"pas2p_span_wall_seconds", "pas2p_span_wall_seconds_count", "pas2p_codec_decode_blocks",
			} {
				if !names[want] {
					t.Errorf("post-run /metrics is missing %s", want)
				}
			}
			spans, err := s.Fetch("/spans")
			if err != nil {
				t.Fatalf("GET /spans: %v", err)
			}
			var doc struct {
				Stats map[string]obs.SpanStatsSnapshot `json:"stats"`
			}
			if err := json.Unmarshal(spans, &doc); err != nil {
				t.Fatal(err)
			}
			for _, stage := range []string{"analyze.order", "phase.extract", "analyze.table"} {
				if st, ok := doc.Stats[stage]; !ok || st.Count < 1 || st.WallP99NS < st.WallP50NS {
					t.Errorf("span stats for %s = %+v (present %v)", stage, st, ok)
				}
			}
		})
	if err := cmdAnalyze([]string{"-trace", tf, "-serve", "127.0.0.1:0"}); err != nil {
		t.Fatalf("analyze -serve: %v", err)
	}
	if !started || !finished {
		t.Fatalf("serve hooks did not both fire (start %v, done %v)", started, finished)
	}
}

// TestChaosServeFlightRecorder runs `pas2p predict -faults -verify
// -serve` with aggressive fault rates and checks /flight lists the
// injected faults as ordered structured events — and that recording
// them does not break the seed-determinism check.
func TestChaosServeFlightRecorder(t *testing.T) {
	withServeHooks(t, nil, func(s *obshttp.Server) {
		body, err := s.Fetch("/flight")
		if err != nil {
			t.Fatalf("GET /flight: %v", err)
		}
		var fs obs.FlightSnapshot
		if err := json.Unmarshal(body, &fs); err != nil {
			t.Fatal(err)
		}
		if len(fs.Events) == 0 {
			t.Fatal("/flight has no events despite injected faults")
		}
		kinds := map[string]int{}
		for i, ev := range fs.Events {
			kinds[ev.Kind]++
			if i > 0 && ev.Seq <= fs.Events[i-1].Seq {
				t.Errorf("flight events out of order: seq %d then %d", fs.Events[i-1].Seq, ev.Seq)
			}
		}
		if kinds["fault.msg_lost"] == 0 {
			t.Errorf("no fault.msg_lost events in flight; kinds = %v", kinds)
		}
		if kinds["exec.restart"] == 0 {
			t.Errorf("no exec.restart events in flight; kinds = %v", kinds)
		}
	})
	err := cmdPredict([]string{"-app", "cg", "-procs", "8", "-seed", "7",
		"-faults", "loss=0.1,crash=0.2", "-verify", "-no-ground-truth", "-serve", "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("predict -faults -verify -serve: %v", err)
	}
}

// TestPredictServe checks the third -serve surface: the prediction
// pipeline serves scrapes and reports its stage spans.
func TestPredictServe(t *testing.T) {
	var scraped bool
	withServeHooks(t, nil, func(s *obshttp.Server) {
		scraped = true
		body, err := s.Fetch("/spans")
		if err != nil {
			t.Fatalf("GET /spans: %v", err)
		}
		if !strings.Contains(string(body), "signature.execute") {
			t.Errorf("/spans does not report the signature execution stage:\n%.400s", body)
		}
	})
	err := cmdPredict([]string{"-app", "cg", "-procs", "8",
		"-no-ground-truth", "-serve", "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("predict -serve: %v", err)
	}
	if !scraped {
		t.Fatal("serve done hook did not fire")
	}
}

// TestServeBadAddrFails pins the error path: an unusable address must
// fail the command before any work happens.
func TestServeBadAddrFails(t *testing.T) {
	err := cmdPredict([]string{"-app", "cg", "-procs", "8", "-serve", "notanaddr:-1"})
	if err == nil {
		t.Fatal("predict -serve with a bad address should fail")
	}
}

// TestPredictTelemetryFiles checks predict's telemetry flags: the span
// report on stdout, the metrics in both formats, and a Perfetto
// timeline whose traced-run track carries the phase boundaries.
func TestPredictTelemetryFiles(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	prom := filepath.Join(dir, "m.prom")
	timeline := filepath.Join(dir, "t.json")
	out, err := captureStdout(t, func() error {
		return cmdPredict([]string{"-app", "cg", "-procs", "8", "-no-ground-truth",
			"-metrics", metrics, "-prom", prom, "-timeline", timeline})
	})
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	for _, want := range []string{"signature execution timeline (Fig. 11)", "stage spans:",
		"signature.execute", "timeline written to " + timeline} {
		if !strings.Contains(out, want) {
			t.Errorf("predict output lacks %q:\n%s", want, out)
		}
	}
	for path, want := range map[string]string{
		metrics:  `"signature.build"`,
		prom:     "pas2p_span_wall_seconds",
		timeline: `"phase 1"`,
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), want) {
			t.Errorf("%s lacks %s", filepath.Base(path), want)
		}
	}
}
