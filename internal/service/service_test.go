package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pas2p"
	"pas2p/internal/obs"
	"pas2p/internal/trace"
)

// newTestService builds a service over a temp repository with
// test-sized queues and deadlines. Callers mutate cfg via mod.
func newTestService(t *testing.T, mod func(*Config)) (*Service, *httptest.Server) {
	t.Helper()
	cfg := Config{
		RepoDir:       t.TempDir(),
		HeavyDeadline: 10 * time.Second,
		LightDeadline: 2 * time.Second,
	}
	if mod != nil {
		mod(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, err := svc.Handler()
	if err != nil {
		t.Fatalf("Handler: %v", err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return svc, ts
}

// tracefileBytes returns an encoded v2 tracefile for app/procs.
func tracefileBytes(t *testing.T, app string, procs int) []byte {
	t.Helper()
	a, err := pas2p.MakeApp(app, procs, "")
	if err != nil {
		t.Fatal(err)
	}
	d, err := pas2p.NewDeployment(pas2p.ClusterA(), procs, pas2p.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	r, err := pas2p.RunApp(a, pas2p.RunConfig{Deployment: d, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pas2p.EncodeTrace(&buf, r.Trace, pas2p.TraceCodecOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeInto reads and decodes a JSON response body.
func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decoding %q: %v", b, err)
	}
}

// wantTyped asserts a typed error response with the given status and
// code, and returns the decoded envelope.
func wantTyped(t *testing.T, resp *http.Response, status int, code Code) errorBody {
	t.Helper()
	if resp.StatusCode != status {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status = %d, want %d (body %q)", resp.StatusCode, status, b)
	}
	var e errorBody
	decodeInto(t, resp, &e)
	if e.Error.Code != code {
		t.Fatalf("code = %q, want %q (message %q)", e.Error.Code, code, e.Error.Message)
	}
	return e
}

func postBytes(t *testing.T, url string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return postBytes(t, url, b, map[string]string{"Content-Type": "application/json"})
}

func TestAnalyzeCachesAndEchoesCRC(t *testing.T) {
	svc, ts := newTestService(t, nil)
	data := tracefileBytes(t, "cg", 4)
	crc, ok := trace.FileCRC(data)
	if !ok {
		t.Fatal("tracefile has no v2 trailer")
	}

	resp := postBytes(t, ts.URL+"/v1/analyze", data, nil)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("analyze: %d %q", resp.StatusCode, b)
	}
	if got := resp.Header.Get(CacheHeader); got != "miss" {
		t.Fatalf("first analyze X-Cache = %q, want miss", got)
	}
	var a1 AnalyzeResponse
	decodeInto(t, resp, &a1)
	if a1.TraceCRC32C != crc {
		t.Fatalf("echoed CRC %08x, uploaded %08x", a1.TraceCRC32C, crc)
	}
	if a1.App != "cg" || a1.Procs != 4 || a1.TotalPhases == 0 || len(a1.Phases) == 0 {
		t.Fatalf("implausible analysis: %+v", a1)
	}

	resp = postBytes(t, ts.URL+"/v1/analyze", data, nil)
	if got := resp.Header.Get(CacheHeader); got != "hit" {
		t.Fatalf("second analyze X-Cache = %q, want hit", got)
	}
	var a2 AnalyzeResponse
	decodeInto(t, resp, &a2)
	if a2.TotalPhases != a1.TotalPhases || a2.BaseAETNS != a1.BaseAETNS {
		t.Fatalf("cached answer differs: %+v vs %+v", a2, a1)
	}

	// A different warm occurrence is a different key.
	resp = postBytes(t, ts.URL+"/v1/analyze?warm=2", data, nil)
	if got := resp.Header.Get(CacheHeader); got != "miss" {
		t.Fatalf("warm=2 X-Cache = %q, want miss", got)
	}
	resp.Body.Close()

	if h, m := svc.mCacheHit.Value(), svc.mCacheMiss.Value(); h != 1 || m != 2 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/2", h, m)
	}
}

func TestAnalyzeRejectsGarbageTyped(t *testing.T) {
	_, ts := newTestService(t, nil)
	resp := postBytes(t, ts.URL+"/v1/analyze", []byte("not a tracefile at all"), nil)
	wantTyped(t, resp, http.StatusUnprocessableEntity, CodeCorruptTrace)

	resp = postBytes(t, ts.URL+"/v1/analyze", nil, nil)
	wantTyped(t, resp, http.StatusBadRequest, CodeBadRequest)

	resp = postBytes(t, ts.URL+"/v1/analyze?warm=minus-one", []byte("x"), nil)
	wantTyped(t, resp, http.StatusBadRequest, CodeBadRequest)

	// Truncating a valid tracefile must fail its checksums, typed.
	data := tracefileBytes(t, "cg", 4)
	resp = postBytes(t, ts.URL+"/v1/analyze", data[:len(data)-7], nil)
	wantTyped(t, resp, http.StatusUnprocessableEntity, CodeCorruptTrace)
}

func TestSignLookupPredictRoundTrip(t *testing.T) {
	_, ts := newTestService(t, nil)

	resp := postJSON(t, ts.URL+"/v1/sign", SignRequest{App: "cg", Procs: 4})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sign: %d %q", resp.StatusCode, b)
	}
	var sr SignResponse
	decodeInto(t, resp, &sr)
	if sr.PayloadSHA256 == "" || sr.TotalPhases == 0 || sr.Checkpoints == 0 {
		t.Fatalf("implausible sign response: %+v", sr)
	}

	resp, err := http.Get(ts.URL + "/v1/lookup?app=cg&procs=4&workload=")
	if err != nil {
		t.Fatal(err)
	}
	var lr LookupResponse
	decodeInto(t, resp, &lr)
	if lr.PayloadSHA256 != sr.PayloadSHA256 {
		t.Fatalf("lookup sha %s != sign sha %s", lr.PayloadSHA256, sr.PayloadSHA256)
	}
	if lr.BaseCluster != "Cluster A" && lr.BaseCluster != "A" {
		t.Fatalf("base cluster %q", lr.BaseCluster)
	}

	resp = postJSON(t, ts.URL+"/v1/predict", PredictRequest{App: "cg", Procs: 4, Target: "B"})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("predict: %d %q", resp.StatusCode, b)
	}
	var pr PredictResponse
	decodeInto(t, resp, &pr)
	if pr.PETNS <= 0 || pr.SETNS <= 0 {
		t.Fatalf("implausible prediction: %+v", pr)
	}
	if pr.PayloadSHA256 != sr.PayloadSHA256 {
		t.Fatalf("predict sha %s != sign sha %s", pr.PayloadSHA256, sr.PayloadSHA256)
	}

	// The served prediction must match the local pipeline bit for bit.
	app, err := pas2p.MakeApp("cg", 4, "")
	if err != nil {
		t.Fatal(err)
	}
	dA, _ := pas2p.NewDeployment(pas2p.ClusterA(), 4, pas2p.MapBlock)
	dB, _ := pas2p.NewDeployment(pas2p.ClusterB(), 4, pas2p.MapBlock)
	r, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: dA, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	_, tb, err := pas2p.Analyze(r.Trace, pas2p.DefaultPhaseConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sig, _, err := pas2p.BuildSignature(app, tb, dA, pas2p.DefaultSignatureOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sig.Execute(dB)
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.PET) != pr.PETNS {
		t.Fatalf("served PET %d != local PET %d", pr.PETNS, int64(res.PET))
	}
}

func TestLookupNotFoundTyped(t *testing.T) {
	_, ts := newTestService(t, nil)
	resp, err := http.Get(ts.URL + "/v1/lookup?app=ghost&procs=8")
	if err != nil {
		t.Fatal(err)
	}
	wantTyped(t, resp, http.StatusNotFound, CodeNotFound)

	resp, err = http.Get(ts.URL + "/v1/lookup?app=ghost")
	if err != nil {
		t.Fatal(err)
	}
	wantTyped(t, resp, http.StatusBadRequest, CodeBadRequest)
}

func TestRequestDecodeErrorsAreTyped(t *testing.T) {
	_, ts := newTestService(t, nil)

	// Malformed JSON.
	resp := postBytes(t, ts.URL+"/v1/sign", []byte("{"), nil)
	wantTyped(t, resp, http.StatusBadRequest, CodeBadRequest)
	// Unknown field.
	resp = postBytes(t, ts.URL+"/v1/sign", []byte(`{"app":"cg","bogus":1}`), nil)
	wantTyped(t, resp, http.StatusBadRequest, CodeBadRequest)
	// Wrong method.
	resp = postBytes(t, ts.URL+"/v1/lookup", nil, nil)
	wantTyped(t, resp, http.StatusMethodNotAllowed, CodeBadRequest)
	// Unknown app.
	resp = postJSON(t, ts.URL+"/v1/sign", SignRequest{App: "no-such-app"})
	wantTyped(t, resp, http.StatusBadRequest, CodeBadRequest)
	// Unknown endpoint.
	r2, err := http.Get(ts.URL + "/v1/frobnicate")
	if err != nil {
		t.Fatal(err)
	}
	wantTyped(t, r2, http.StatusNotFound, CodeNotFound)
	// Oversized body.
	svcSmall, tsSmall := newTestService(t, func(c *Config) { c.MaxBodyBytes = 64 })
	_ = svcSmall
	resp = postBytes(t, tsSmall.URL+"/v1/analyze", bytes.Repeat([]byte("x"), 4096), nil)
	wantTyped(t, resp, http.StatusRequestEntityTooLarge, CodeBodyTooLarge)
}

// TestRequestPathsAndHeadersAreTyped: requests ServeMux would
// answer with an untyped 301 path-clean redirect, and deadlines that
// overflow time.Duration, get typed errors. The client does not follow
// redirects, so a 301 fails the test.
func TestRequestPathsAndHeadersAreTyped(t *testing.T) {
	_, ts := newTestService(t, nil)
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	cases := []struct {
		name, path, deadline string
		status               int
		code                 Code
	}{
		{"dot", "/v1/.", "", http.StatusNotFound, CodeNotFound},
		{"dot-dot", "/v1/lookup/..", "", http.StatusNotFound, CodeNotFound},
		{"inner-dot", "/v1/./lookup?app=cg&procs=8", "", http.StatusNotFound, CodeNotFound},
		{"double-slash", "//v1/lookup?app=cg&procs=8", "", http.StatusNotFound, CodeNotFound},
		{"trailing-double-slash", "/v1//", "", http.StatusNotFound, CodeNotFound},
		{"deadline-overflow", "/v1/lookup?app=cg&procs=8", "9227000000000", http.StatusBadRequest, CodeBadRequest},
		{"deadline-max-int64", "/v1/lookup?app=cg&procs=8", "9223372036854775807", http.StatusBadRequest, CodeBadRequest},
		// Canonical controls still reach their handlers.
		{"canonical-miss", "/v1/lookup?app=cg&procs=8", "", http.StatusNotFound, CodeNotFound},
		{"deadline-at-limit", "/v1/lookup?app=cg&procs=8", "9223372036854", http.StatusNotFound, CodeNotFound},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, ts.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.deadline != "" {
				req.Header.Set(DeadlineHeader, tc.deadline)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			wantTyped(t, resp, tc.status, tc.code)
		})
	}
}

func TestInfeasibleDeadlineIsShedBeforeWork(t *testing.T) {
	svc, ts := newTestService(t, nil)
	// The heavy class's estimate is seeded at 50ms; a 1ms budget can
	// never fit, so admission must shed without starting work.
	resp := postBytes(t, ts.URL+"/v1/analyze", []byte("irrelevant"),
		map[string]string{DeadlineHeader: "1"})
	e := wantTyped(t, resp, http.StatusServiceUnavailable, CodeShed)
	if e.Error.RetryAfter < 1 {
		t.Fatalf("shed without Retry-After: %+v", e)
	}
	if got := svc.heavy.shedInfea.Value(); got != 1 {
		t.Fatalf("shed_infeasible = %d, want 1", got)
	}
	if svc.mAbandoned.Value() != 0 {
		t.Fatal("shed request still started work")
	}
}

func TestQueueOverflowIs429(t *testing.T) {
	svc, ts := newTestService(t, func(c *Config) {
		c.HeavySlots = 1
		c.HeavyQueue = -1 // one in flight, one waiter; the next arrival bounces
	})
	var once sync.Once
	firstIn := make(chan struct{})
	release := make(chan struct{})
	svc.afterAdmit = func(ctx context.Context, op string) {
		once.Do(func() { close(firstIn) })
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	// A holds the only slot; B parks in the admission queue.
	respA := make(chan *http.Response, 1)
	go func() {
		respA <- postBytes(t, ts.URL+"/v1/analyze", tracefileBytes(t, "cg", 4), nil)
	}()
	<-firstIn
	respB := make(chan *http.Response, 1)
	go func() {
		respB <- postBytes(t, ts.URL+"/v1/analyze", []byte("x"), nil)
	}()
	waitFor(t, func() bool { return svc.heavy.waiting.Load() == 1 })

	// C finds slot + queue both occupied: immediate 429, no waiting.
	resp := postBytes(t, ts.URL+"/v1/analyze", []byte("x"), nil)
	e := wantTyped(t, resp, http.StatusTooManyRequests, CodeQueueFull)
	if e.Error.RetryAfter < 1 {
		t.Fatalf("429 without Retry-After: %+v", e)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("Retry-After header missing")
	}
	close(release)
	a := <-respA
	if a.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(a.Body)
		t.Fatalf("slot-holding request failed: %d %q", a.StatusCode, b)
	}
	a.Body.Close()
	b := <-respB // garbage body: typed 422 once it finally runs
	wantTyped(t, b, http.StatusUnprocessableEntity, CodeCorruptTrace)
	if svc.heavy.shedFull.Value() != 1 {
		t.Fatalf("shed_queue_full = %d, want 1", svc.heavy.shedFull.Value())
	}
}

func TestPanicIsolation(t *testing.T) {
	svc, ts := newTestService(t, nil)
	svc.afterAdmit = func(ctx context.Context, op string) {
		panic("deliberate test panic")
	}
	resp := postBytes(t, ts.URL+"/v1/analyze", []byte("x"), nil)
	wantTyped(t, resp, http.StatusInternalServerError, CodePanic)

	// The server survived: the next (non-panicking) request works.
	svc.afterAdmit = nil
	resp = postBytes(t, ts.URL+"/v1/analyze", tracefileBytes(t, "cg", 4), nil)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("post-panic analyze: %d %q", resp.StatusCode, b)
	}
	resp.Body.Close()

	if svc.mPanics.Value() != 1 {
		t.Fatalf("panics counter = %d, want 1", svc.mPanics.Value())
	}
	// The panic (with stack) is on the flight recorder.
	var buf bytes.Buffer
	if err := svc.o.FR().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "deliberate test panic") {
		t.Fatalf("flight recorder has no panic dump: %s", buf.String())
	}
}

func TestNoDeadlineBlown200(t *testing.T) {
	svc, ts := newTestService(t, nil)
	// Make the light estimate tiny so admission lets the request in,
	// then stall past the deadline inside the handler.
	svc.light.estNS.Store(0)
	svc.afterAdmit = func(ctx context.Context, op string) {
		<-ctx.Done() // outlive the deadline, then let the handler "succeed"
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/lookup?app=cg&procs=4", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(DeadlineHeader, "50")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantTyped(t, resp, http.StatusGatewayTimeout, CodeDeadline)
}

func TestHealthzLifecycleAndDrain(t *testing.T) {
	svc, ts := newTestService(t, nil)

	health := func() string {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Status string `json:"status"`
		}
		decodeInto(t, resp, &h)
		return h.Status
	}
	if got := health(); got != "ready" {
		t.Fatalf("healthz before drain = %q, want ready", got)
	}

	// Park a request in flight, then drain: the drain must wait for
	// it, refuse new work with a typed 503, and report it finished.
	entered := make(chan struct{})
	release := make(chan struct{})
	svc.afterAdmit = func(ctx context.Context, op string) {
		close(entered)
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	inflight := make(chan *http.Response, 1)
	go func() {
		inflight <- postBytes(t, ts.URL+"/v1/analyze", tracefileBytes(t, "cg", 4), nil)
	}()
	<-entered

	drainDone := make(chan DrainReport, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainDone <- svc.Drain(ctx)
	}()

	// Draining: new requests are refused, typed.
	waitFor(t, func() bool { return svc.Draining() })
	if got := health(); got != "draining" {
		t.Fatalf("healthz during drain = %q, want draining", got)
	}
	resp := postBytes(t, ts.URL+"/v1/analyze", []byte("x"), nil)
	wantTyped(t, resp, http.StatusServiceUnavailable, CodeDraining)

	close(release) // let the in-flight request finish
	rep := <-drainDone
	if rep.InFlightAtStart != 1 || rep.Finished != 1 || rep.Shed != 0 {
		t.Fatalf("drain report %+v, want 1 in flight, 1 finished, 0 shed", rep)
	}
	r := <-inflight
	if r.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(r.Body)
		t.Fatalf("in-flight request during drain: %d %q", r.StatusCode, b)
	}
	r.Body.Close()
	if got := health(); got != "done" {
		t.Fatalf("healthz after drain = %q, want done", got)
	}

	// Idempotent: a second drain returns immediately.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	svc.Drain(ctx)
}

func TestDrainDeadlineShedsStragglers(t *testing.T) {
	svc, ts := newTestService(t, nil)
	entered := make(chan struct{})
	svc.afterAdmit = func(ctx context.Context, op string) {
		close(entered)
		<-ctx.Done() // never finishes on its own; only the drain hammer ends it
	}
	inflight := make(chan *http.Response, 1)
	go func() {
		inflight <- postBytes(t, ts.URL+"/v1/analyze", tracefileBytes(t, "cg", 4), nil)
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	rep := svc.Drain(ctx)
	if rep.Shed != 1 {
		t.Fatalf("drain report %+v, want 1 shed", rep)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("drain took %v despite its deadline", waited)
	}
	resp := <-inflight
	// The shed request got a typed error, not a hang and not a 200.
	if resp.StatusCode == http.StatusOK {
		t.Fatal("shed request returned 200")
	}
	var e errorBody
	decodeInto(t, resp, &e)
	if e.Error.Code == "" {
		t.Fatal("shed request returned an untyped error")
	}
}

func TestConcurrentMixedTrafficUnderRace(t *testing.T) {
	_, ts := newTestService(t, func(c *Config) {
		c.HeavySlots = 2
		c.HeavyQueue = 8
	})
	data := tracefileBytes(t, "cg", 4)

	// Seed the repo so lookups/predicts have a target.
	resp := postJSON(t, ts.URL+"/v1/sign", SignRequest{App: "cg", Procs: 4})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("seed sign: %d %q", resp.StatusCode, b)
	}
	resp.Body.Close()

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				var resp *http.Response
				var err error
				switch (w + i) % 3 {
				case 0:
					resp = postBytes(t, ts.URL+"/v1/analyze", data, nil)
				case 1:
					resp, err = http.Get(ts.URL + "/v1/lookup?app=cg&procs=4")
				case 2:
					resp = postJSON(t, ts.URL+"/v1/predict", PredictRequest{App: "cg", Procs: 4})
				}
				if err != nil {
					errs <- fmt.Sprintf("transport: %v", err)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					var e errorBody
					b, _ := io.ReadAll(resp.Body)
					if jerr := json.Unmarshal(b, &e); jerr != nil || e.Error.Code == "" {
						errs <- fmt.Sprintf("untyped %d: %q", resp.StatusCode, b)
					}
					resp.Body.Close()
					continue
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("unclean response: %s", e)
	}
}

func TestMetricsEndpointServesServiceCounters(t *testing.T) {
	_, ts := newTestService(t, nil)
	resp := postBytes(t, ts.URL+"/v1/analyze", tracefileBytes(t, "cg", 4), nil)
	resp.Body.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"service_requests", "service_ok", "service_heavy_admitted"} {
		if !strings.Contains(string(b), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func TestFinalSnapshotAfterDrain(t *testing.T) {
	svc, ts := newTestService(t, nil)
	resp := postBytes(t, ts.URL+"/v1/analyze", tracefileBytes(t, "cg", 4), nil)
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	svc.Drain(ctx)
	snap := svc.FinalSnapshot()
	if snap.Counters["service.requests"] != 1 || snap.Counters["service.ok"] != 1 {
		t.Fatalf("snapshot counters: %v", snap.Counters)
	}
	if _, ok := snap.Gauges["runtime.goroutines"]; !ok {
		t.Fatal("final snapshot missing runtime gauges")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// Unit tests for the cache and single-flight plumbing.

// TestAnalyzeCacheKeysOnContent: two distinct v2 traces of the same
// size (the second has a doubled header AET) share the trailer CRC,
// which depends only on the block layout. Each must still get its own
// correct answer, in the in-core and in the stream lane, with the
// response echoing its own trailer CRC.
func TestAnalyzeCacheKeysOnContent(t *testing.T) {
	a := tracefileBytes(t, "cg", 4)
	tr, err := trace.Decode(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	tr.AET *= 2
	var buf bytes.Buffer
	if err := pas2p.EncodeTrace(&buf, tr, pas2p.TraceCodecOptions{}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(a) != len(b) || bytes.Equal(a, b) {
		t.Fatalf("want two distinct same-size traces, got %d and %d bytes", len(a), len(b))
	}
	want := func(data []byte) AnalyzeResponse {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		_, tb, err := pas2p.Analyze(tr, pas2p.DefaultPhaseConfig(), 1)
		if err != nil {
			t.Fatal(err)
		}
		crc, _ := trace.FileCRC(data)
		return AnalyzeResponse{TraceCRC32C: crc, BaseAETNS: int64(tb.BaseAET),
			TotalPhases: tb.TotalPhases, Relevant: len(tb.RelevantRows()),
			PredictedAETNS: int64(tb.PredictedAET(true))}
	}
	for lane, threshold := range map[string]int64{"in-core": -1, "stream": 1} {
		_, ts := newTestService(t, func(c *Config) { c.StreamThresholdBytes = threshold })
		for i, data := range [][]byte{a, b, a, b} {
			resp := postBytes(t, ts.URL+"/v1/analyze", data, nil)
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("%s upload %d: %d %q", lane, i, resp.StatusCode, body)
			}
			wantCache := "miss"
			if i >= 2 {
				wantCache = "hit"
			}
			if got := resp.Header.Get(CacheHeader); got != wantCache {
				t.Errorf("%s upload %d: X-Cache = %q, want %q", lane, i, got, wantCache)
			}
			var got AnalyzeResponse
			decodeInto(t, resp, &got)
			w := want(data)
			if got.TraceCRC32C != w.TraceCRC32C || got.BaseAETNS != w.BaseAETNS ||
				got.TotalPhases != w.TotalPhases || got.Relevant != w.Relevant ||
				got.PredictedAETNS != w.PredictedAETNS {
				t.Fatalf("%s upload %d answered %+v, want %+v", lane, i, got, w)
			}
		}
	}
}

func TestLRUCacheEvictsOldest(t *testing.T) {
	c := newLRUCache(2)
	k := func(i byte) cacheKey { return cacheKey{sum: [32]byte{i}, warm: 1} }
	c.put(k(1), &AnalyzeResponse{TotalPhases: 1})
	c.put(k(2), &AnalyzeResponse{TotalPhases: 2})
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 evicted too early")
	}
	c.put(k(3), &AnalyzeResponse{TotalPhases: 3}) // k2 is now LRU → out
	if _, ok := c.get(k(2)); ok {
		t.Fatal("k2 survived past capacity")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("recently-used k1 evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestFlightGroupDedupsConcurrentCallers(t *testing.T) {
	g := newFlightGroup()
	k := cacheKey{sum: [32]byte{7}, warm: 1}
	started := make(chan struct{})
	proceed := make(chan struct{})
	var leaders, followers int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 0 {
				v, err, leader := g.do(context.Background(), k, func() (*AnalyzeResponse, error) {
					close(started)
					<-proceed
					return &AnalyzeResponse{TotalPhases: 42}, nil
				})
				if err != nil || v.TotalPhases != 42 || !leader {
					t.Errorf("leader: v=%v err=%v leader=%v", v, err, leader)
				}
				mu.Lock()
				leaders++
				mu.Unlock()
				return
			}
			<-started
			v, err, leader := g.do(context.Background(), k, func() (*AnalyzeResponse, error) {
				t.Error("follower executed the work")
				return nil, nil
			})
			if err != nil || v.TotalPhases != 42 || leader {
				t.Errorf("follower: v=%v err=%v leader=%v", v, err, leader)
			}
			mu.Lock()
			followers++
			mu.Unlock()
		}(i)
	}
	go func() {
		<-started
		time.Sleep(20 * time.Millisecond) // let followers pile onto the call
		close(proceed)
	}()
	wg.Wait()
	if leaders != 1 || followers != 7 {
		t.Fatalf("leaders=%d followers=%d, want 1/7", leaders, followers)
	}
}

func TestFlightGroupFollowerTakesOverDeadLeader(t *testing.T) {
	g := newFlightGroup()
	k := cacheKey{sum: [32]byte{9}, warm: 1}
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	go func() {
		g.do(context.Background(), k, func() (*AnalyzeResponse, error) { //nolint:errcheck
			close(leaderIn)
			<-leaderGo
			// The leader dies of its own deadline mid-work.
			return nil, context.DeadlineExceeded
		})
	}()
	<-leaderIn
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		// Live follower: must not inherit the corpse — it re-runs the
		// work itself and succeeds.
		v, err, _ := g.do(context.Background(), k, func() (*AnalyzeResponse, error) {
			return &AnalyzeResponse{TotalPhases: 7}, nil
		})
		if err != nil || v == nil || v.TotalPhases != 7 {
			t.Errorf("takeover failed: v=%v err=%v", v, err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // follower is waiting on the leader
	close(leaderGo)
	<-followerDone

	// A follower whose own context is dead inherits nothing either —
	// it reports its own cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err, _ := g.do(ctx, k, func() (*AnalyzeResponse, error) {
		return &AnalyzeResponse{}, nil
	})
	// (no in-flight call: this caller is the leader, fn runs, err nil —
	// but with an in-flight call and a dead ctx it must return ctx.Err.
	// Exercise that path too.)
	_ = err
	blockIn := make(chan struct{})
	blockGo := make(chan struct{})
	go func() {
		g.do(context.Background(), k, func() (*AnalyzeResponse, error) { //nolint:errcheck
			close(blockIn)
			<-blockGo
			return &AnalyzeResponse{}, nil
		})
	}()
	<-blockIn
	_, err, leader := g.do(ctx, k, func() (*AnalyzeResponse, error) {
		t.Error("dead-ctx follower ran the work")
		return nil, nil
	})
	close(blockGo)
	if leader || err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("dead-ctx follower: err=%v leader=%v", err, leader)
	}
}

func TestAdmitterEWMAAndRetryAfter(t *testing.T) {
	reg := obs.NewRegistry()
	a := newAdmitter("t", 2, 4, 100*time.Millisecond, reg)
	if got := a.estimate(); got != 100*time.Millisecond {
		t.Fatalf("seed estimate %v", got)
	}
	for i := 0; i < 100; i++ {
		a.observe(200 * time.Millisecond)
	}
	if got := a.estimate(); got < 180*time.Millisecond || got > 200*time.Millisecond {
		t.Fatalf("EWMA did not converge: %v", got)
	}
	if ra := a.retryAfter(); ra < time.Second || ra > 30*time.Second {
		t.Fatalf("retryAfter %v outside clamp", ra)
	}

	// Feasibility: a context with less remaining than the estimate is
	// shed, and the slot is returned.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	release, apiErr := a.admit(ctx)
	if apiErr == nil || apiErr.Code != CodeShed {
		t.Fatalf("infeasible admit: %v", apiErr)
	}
	if release != nil {
		t.Fatal("shed admit returned a release")
	}
	// Slots were returned: a feasible request still gets in.
	release, apiErr = a.admit(context.Background())
	if apiErr != nil {
		t.Fatalf("feasible admit failed: %v", apiErr)
	}
	release()
}

// TestAnalyzeStreamLane proves the out-of-core analyze lane: with the
// stream threshold dropped to one byte every upload streams through
// the disk spool under a tiny memory budget (so spilling actually
// engages), the answer is bit-identical to the in-core pipeline's,
// and the two lanes share the same cache key.
func TestAnalyzeStreamLane(t *testing.T) {
	svc, ts := newTestService(t, func(c *Config) {
		c.StreamThresholdBytes = 1
		c.StreamMemBudget = 1 // force every phase matrix to spill
	})
	data := tracefileBytes(t, "cg", 4)

	resp := postBytes(t, ts.URL+"/v1/analyze", data, nil)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("streamed analyze: %d %q", resp.StatusCode, b)
	}
	if got := resp.Header.Get(AnalyzeModeHeader); got != "stream" {
		t.Fatalf("%s = %q, want stream", AnalyzeModeHeader, got)
	}
	if got := resp.Header.Get(CacheHeader); got != "miss" {
		t.Fatalf("first streamed analyze X-Cache = %q, want miss", got)
	}
	var streamed AnalyzeResponse
	decodeInto(t, resp, &streamed)

	// In-core reference from a service with streaming disabled.
	_, ref := newTestService(t, func(c *Config) { c.StreamThresholdBytes = -1 })
	resp = postBytes(t, ref.URL+"/v1/analyze", data, nil)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("in-core analyze: %d %q", resp.StatusCode, b)
	}
	if got := resp.Header.Get(AnalyzeModeHeader); got != "in-core" {
		t.Fatalf("%s = %q, want in-core", AnalyzeModeHeader, got)
	}
	var incore AnalyzeResponse
	decodeInto(t, resp, &incore)
	if !reflect.DeepEqual(streamed, incore) {
		t.Fatalf("streamed answer differs from in-core:\n  stream: %+v\n  incore: %+v", streamed, incore)
	}

	// Same trace again: served from the cache entry the stream lane
	// populated, and the stream admission class accounted both.
	resp = postBytes(t, ts.URL+"/v1/analyze", data, nil)
	if got := resp.Header.Get(CacheHeader); got != "hit" {
		t.Fatalf("second streamed analyze X-Cache = %q, want hit", got)
	}
	resp.Body.Close()
	if got := svc.reg.Counter("service.stream.admitted").Value(); got != 2 {
		t.Fatalf("stream.admitted = %d, want 2", got)
	}
	if got := svc.reg.Counter("service.heavy.admitted").Value(); got != 0 {
		t.Fatalf("heavy.admitted = %d, want 0 (analyze went to the stream class)", got)
	}
}

// TestAnalyzeStreamLaneErrors pins the stream lane's failure taxonomy:
// corruption deep in a spooled v2 body is a typed corrupt_trace, and a
// non-v2 body over the in-core cap is a typed 413 (it cannot be
// random-accessed, so falling back in-core would be the heap risk the
// lane exists to avoid).
func TestAnalyzeStreamLaneErrors(t *testing.T) {
	_, ts := newTestService(t, func(c *Config) {
		c.StreamThresholdBytes = 1
		c.MaxBodyBytes = 1 << 10
		c.StreamBodyBytes = 1 << 20
	})
	data := tracefileBytes(t, "cg", 4)

	// Flip one byte in the middle of the body: the per-block CRC fails
	// during the streamed read.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	resp := postBytes(t, ts.URL+"/v1/analyze", bad, nil)
	wantTyped(t, resp, http.StatusUnprocessableEntity, CodeCorruptTrace)

	// Non-v2 garbage above MaxBodyBytes but under StreamBodyBytes: the
	// spool cannot fall back in-core, typed 413.
	junk := bytes.Repeat([]byte("j"), 4<<10)
	resp = postBytes(t, ts.URL+"/v1/analyze", junk, nil)
	wantTyped(t, resp, http.StatusRequestEntityTooLarge, CodeBodyTooLarge)

	// Non-v2 garbage under MaxBodyBytes falls back in-core and fails
	// trace decoding, typed.
	resp = postBytes(t, ts.URL+"/v1/analyze", []byte("small junk"), nil)
	wantTyped(t, resp, http.StatusUnprocessableEntity, CodeCorruptTrace)
}
