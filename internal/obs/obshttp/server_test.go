package obshttp

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pas2p/internal/obs"
)

func startTestServer(t *testing.T, o *obs.Observer) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return s
}

// promNameRe and promLabelValueRe follow the text exposition format:
// metric names, then label pairs with only \\, \" and \n escapes
// allowed inside quoted values.
var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parsePrometheus validates body against the exposition grammar and
// returns sample name -> value for label-free samples. It fails the
// test on any malformed line, unescaped label value, or sample whose
// family lacks HELP/TYPE lines.
func parsePrometheus(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	help := map[string]bool{}
	typ := map[string]bool{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found || !promNameRe.MatchString(name) {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			help[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fields := strings.Fields(rest)
			if len(fields) != 2 || !promNameRe.MatchString(fields[0]) {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, fields[1])
			}
			typ[fields[0]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		}
		name, labels, value := parseSample(t, ln+1, line)
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if fam, ok := strings.CutSuffix(name, suf); ok && typ[fam] {
				base = fam
			}
		}
		if !typ[base] || !help[base] {
			t.Fatalf("line %d: sample %s has no TYPE/HELP for family %s", ln+1, name, base)
		}
		if labels == "" {
			samples[name] = value
		}
	}
	return samples
}

// parseSample splits `name{labels} value` and validates the label
// syntax including escapes.
func parseSample(t *testing.T, ln int, line string) (name, labels string, value float64) {
	t.Helper()
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			t.Fatalf("line %d: unbalanced braces: %q", ln, line)
		}
		labels = line[i+1 : j]
		rest = strings.TrimSpace(line[j+1:])
		validateLabels(t, ln, labels)
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("line %d: want 'name value': %q", ln, line)
		}
		name, rest = fields[0], fields[1]
	}
	if !promNameRe.MatchString(name) {
		t.Fatalf("line %d: bad metric name %q", ln, name)
	}
	v := strings.Fields(rest)
	if len(v) < 1 {
		t.Fatalf("line %d: missing value: %q", ln, line)
	}
	val, err := parsePromValue(v[0])
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", ln, v[0], err)
	}
	return name, labels, val
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return 0, nil
	case "-Inf", "NaN":
		return 0, nil
	}
	return strconv.ParseFloat(s, 64)
}

// validateLabels walks `k="v",k="v"` checking names and that values
// contain only the three legal escapes (\\, \", \n) — a \uXXXX escape
// or a raw quote fails.
func validateLabels(t *testing.T, ln int, labels string) {
	t.Helper()
	i := 0
	for i < len(labels) {
		eq := strings.IndexByte(labels[i:], '=')
		if eq < 0 {
			t.Fatalf("line %d: label without '=': %q", ln, labels[i:])
		}
		name := labels[i : i+eq]
		if !promLabelRe.MatchString(name) {
			t.Fatalf("line %d: bad label name %q", ln, name)
		}
		i += eq + 1
		if i >= len(labels) || labels[i] != '"' {
			t.Fatalf("line %d: label value not quoted at %q", ln, labels[i:])
		}
		i++
		for i < len(labels) {
			switch labels[i] {
			case '\\':
				if i+1 >= len(labels) || !strings.ContainsRune(`\"n`, rune(labels[i+1])) {
					t.Fatalf("line %d: illegal escape %q", ln, labels[i:])
				}
				i += 2
			case '"':
				i++
				goto closed
			case '\n':
				t.Fatalf("line %d: raw newline in label value", ln)
			default:
				i++
			}
		}
		t.Fatalf("line %d: unterminated label value", ln)
	closed:
		if i < len(labels) {
			if labels[i] != ',' {
				t.Fatalf("line %d: expected ',' after label, got %q", ln, labels[i:])
			}
			i++
		}
	}
}

// TestEndpointsAgainstLiveObserver drives every endpoint against an
// observer carrying metrics, spans (with an escaping-hostile name),
// flight events and a timeline.
func TestEndpointsAgainstLiveObserver(t *testing.T) {
	o := obs.NewWithTimeline()
	o.Flight = obs.NewFlightRecorder(16)
	o.Registry.Counter("sim.messages").Add(7)
	o.Registry.Gauge("codec.worker_util").Set(0.5)
	o.Registry.Histogram("sim.msg_bytes", []float64{1024, 65536}).Observe(2048)
	sp := o.StartSpan(`weird"span\name`)
	sp.End()
	o.Event("fault.msg_lost", "message lost, retransmitted", 3, 1)
	o.Event("fault.crash", "restart crashed", 0, 2)
	o.Timeline.Slice(o.Timeline.NewProcess("p"), 0, "compute", "compute", 0, 10)

	s := startTestServer(t, o)

	t.Run("metrics", func(t *testing.T) {
		body, err := s.Fetch("/metrics")
		if err != nil {
			t.Fatal(err)
		}
		samples := parsePrometheus(t, string(body))
		if samples["pas2p_sim_messages"] != 7 {
			t.Errorf("pas2p_sim_messages = %v, want 7", samples["pas2p_sim_messages"])
		}
		// The runtime collector must refresh on scrape.
		if samples["pas2p_runtime_goroutines"] <= 0 {
			t.Errorf("runtime goroutines gauge = %v, want > 0", samples["pas2p_runtime_goroutines"])
		}
		if !strings.Contains(string(body), `span="weird\"span\\name"`) {
			t.Errorf("span label not escaped: %s", body)
		}
	})

	t.Run("metrics.json", func(t *testing.T) {
		body, err := s.Fetch("/metrics.json")
		if err != nil {
			t.Fatal(err)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Counters["sim.messages"] != 7 {
			t.Errorf("counters = %v", snap.Counters)
		}
		if snap.Gauges["runtime.heap_alloc_bytes"] <= 0 {
			t.Error("runtime gauges missing from JSON scrape")
		}
	})

	t.Run("spans", func(t *testing.T) {
		body, err := s.Fetch("/spans")
		if err != nil {
			t.Fatal(err)
		}
		var doc spansDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		st, ok := doc.Stats[`weird"span\name`]
		if !ok || st.Count != 1 {
			t.Errorf("span stats = %+v", doc.Stats)
		}
		if len(doc.Recent) != 1 || doc.SpansTotal != 1 {
			t.Errorf("recent/total = %d/%d, want 1/1", len(doc.Recent), doc.SpansTotal)
		}
	})

	t.Run("flight", func(t *testing.T) {
		body, err := s.Fetch("/flight")
		if err != nil {
			t.Fatal(err)
		}
		var fs obs.FlightSnapshot
		if err := json.Unmarshal(body, &fs); err != nil {
			t.Fatal(err)
		}
		if len(fs.Events) != 2 || fs.Events[0].Kind != "fault.msg_lost" || fs.Events[1].Kind != "fault.crash" {
			t.Errorf("flight events = %+v", fs.Events)
		}
		if fs.Events[0].Seq >= fs.Events[1].Seq {
			t.Errorf("flight events out of order: %+v", fs.Events)
		}
	})

	t.Run("timeline", func(t *testing.T) {
		body, err := s.Fetch("/timeline")
		if err != nil {
			t.Fatal(err)
		}
		var tl struct {
			TraceEvents []obs.TraceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(body, &tl); err != nil {
			t.Fatal(err)
		}
		if len(tl.TraceEvents) == 0 {
			t.Error("timeline scrape returned no events")
		}
	})

	t.Run("pprof", func(t *testing.T) {
		body, err := s.Fetch("/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), "goroutine") {
			t.Errorf("pprof index does not list profiles: %.100s", body)
		}
	})

	t.Run("index", func(t *testing.T) {
		body, err := s.Fetch("/")
		if err != nil {
			t.Fatal(err)
		}
		for _, ep := range []string{"/metrics", "/spans", "/flight", "/healthz", "/debug/pprof/"} {
			if !strings.Contains(string(body), ep) {
				t.Errorf("index does not mention %s", ep)
			}
		}
		if _, err := s.Fetch("/no-such-endpoint"); err == nil {
			t.Error("unknown path should 404")
		}
	})
}

// TestHealthzFlipsReadyToDone pins the lifecycle the CLI drives: ready
// while the run is live, done after SetDone, scrapes still served, and
// Shutdown returns the final flushed snapshot.
func TestHealthzFlipsReadyToDone(t *testing.T) {
	o := obs.New()
	o.Registry.Counter("sim.messages").Add(3)
	s, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	health := func() string {
		body, err := s.Fetch("/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		return h.Status
	}
	if got := health(); got != "ready" {
		t.Fatalf("before SetDone: status = %q, want ready", got)
	}
	s.SetDone()
	if got := health(); got != "done" {
		t.Fatalf("after SetDone: status = %q, want done", got)
	}
	// Metrics must still scrape after done (linger window).
	if _, err := s.Fetch("/metrics"); err != nil {
		t.Fatalf("scrape after done: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	snap, err := s.Shutdown(ctx)
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if snap.Counters["sim.messages"] != 3 {
		t.Errorf("final snapshot counters = %v", snap.Counters)
	}
	if snap.Gauges["runtime.goroutines"] <= 0 {
		t.Error("final snapshot missing refreshed runtime gauges")
	}
	if _, err := s.Fetch("/healthz"); err == nil {
		t.Error("server still serving after Shutdown")
	}
}

// TestConcurrentScrapes hammers the scrape endpoints while spans and
// flight events are recorded — the -race CI matrix covers this
// package, so any unsynchronised state fails there.
func TestConcurrentScrapes(t *testing.T) {
	o := obs.New()
	o.Flight = obs.NewFlightRecorder(64)
	s := startTestServer(t, o)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sp := o.StartSpan("stage")
			sp.End()
			o.Event("fault.msg_lost", "lost", i%8, int64(i))
		}
	}()
	var wg sync.WaitGroup
	for _, ep := range []string{"/metrics", "/metrics.json", "/spans", "/flight", "/healthz"} {
		wg.Add(1)
		go func(ep string) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := s.Fetch(ep); err != nil {
					t.Errorf("GET %s: %v", ep, err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
	close(stop)
	<-writerDone
	if got := o.Registry.Counter("serve.scrapes").Value(); got < 100 {
		t.Errorf("serve.scrapes = %d, want >= 100", got)
	}
}

// TestServeBadAddr checks the error path and the port-0 contract.
func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bad", obs.New()); err == nil {
		t.Error("want error for unparseable address")
	}
	var nilObs *obs.Observer
	if _, err := Serve("127.0.0.1:0", nilObs); err == nil {
		t.Error("want error for observer without registry")
	}
	s := startTestServer(t, obs.New())
	if !strings.Contains(s.Addr(), ":") || strings.HasSuffix(s.Addr(), ":0") {
		t.Errorf("Addr() = %q, want a resolved port", s.Addr())
	}
	if want := "http://" + s.Addr(); s.URL() != want {
		t.Errorf("URL() = %q, want %q", s.URL(), want)
	}
}

// TestBarePprofPathServesIndex: /debug/pprof answers with the profile
// index itself rather than ServeMux's untyped redirect to
// /debug/pprof/.
func TestBarePprofPathServesIndex(t *testing.T) {
	s := startTestServer(t, obs.New())
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	for _, path := range []string{"/debug/pprof", "/debug/pprof/"} {
		resp, err := client.Get(s.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "goroutine") {
			t.Errorf("GET %s does not list profiles: %.100s", path, body)
		}
	}
}
