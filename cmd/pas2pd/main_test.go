package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"pas2p"
	"pas2p/internal/service"
	"pas2p/internal/trace"
)

// TestMain runs the daemon instead of the tests when the test binary
// is started under the name pas2pd, so a test can run a real pas2pd
// process and signal it.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "pas2pd" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDaemonLifecycle drives the full daemon body: start, serve real
// requests, receive a SIGTERM, drain gracefully, and flush the final
// snapshot atomically.
func TestDaemonLifecycle(t *testing.T) {
	repo := t.TempDir()
	snap := filepath.Join(t.TempDir(), "snapshot.json")
	var stdout, stderr bytes.Buffer
	stop := make(chan os.Signal, 1)
	ready := make(chan *service.Server, 1)

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-repo", repo,
			"-snapshot", snap,
			"-drain-timeout", "5s",
		}, &stdout, &stderr, func(s *service.Server) { ready <- s }, stop)
	}()
	srv := <-ready

	if st, err := healthz(http.DefaultClient, srv.URL()); err != nil || st != "ready" {
		t.Fatalf("healthz = %q, %v; want ready", st, err)
	}
	// A served request (typed 404 — the repo is empty) so the final
	// snapshot has traffic to report.
	resp, err := http.Get(srv.URL() + "/v1/lookup?app=cg&procs=4")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("lookup on empty repo: %d, want 404", resp.StatusCode)
	}

	stop <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"serving on", "draining", "drained in", "final snapshot written"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}

	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("snapshot is not JSON: %v", err)
	}
	if doc.Counters["service.requests"] != 1 {
		t.Fatalf("snapshot counters = %v, want 1 service request", doc.Counters)
	}
}

// TestDaemonFlagErrors pins the daemon's refusal paths: they must be
// errors from run, not panics or silent defaults.
func TestDaemonFlagErrors(t *testing.T) {
	var out bytes.Buffer
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no repo", []string{"-addr", "127.0.0.1:0"}, "-repo is required"},
		{"stray arg", []string{"-repo", "x", "stray"}, "unexpected argument"},
		{"bad fault spec", []string{"-repo", "x", "-faults", "nonsense=1"}, ""},
		{"bad fs fault spec", []string{"-repo", "x", "-fsfaults", "zap=1"}, ""},
	} {
		err := run(tc.args, &out, &out, nil, nil)
		if err == nil {
			t.Errorf("%s: run accepted %v", tc.name, tc.args)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestDaemonChaosFlagsWire checks that chaos mode actually threads the
// injector and fault filesystem into the service (the startup banner
// is the observable contract).
func TestDaemonChaosFlagsWire(t *testing.T) {
	var stdout, stderr bytes.Buffer
	stop := make(chan os.Signal, 1)
	ready := make(chan *service.Server, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-repo", t.TempDir(),
			"-fault-seed", "7",
			"-faults", "loss=0.05,dup=0.03,delay=0.10",
			"-fsfaults", "torn=0.2,trunc=0.1,flip=0.1",
		}, &stdout, &stderr, func(s *service.Server) { ready <- s }, stop)
	}()
	<-ready
	stop <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	out := stdout.String()
	if !strings.Contains(out, "pipeline faults") || !strings.Contains(out, "storage faults") {
		t.Fatalf("chaos banners missing:\n%s", out)
	}
}

// smokeMix is the chaos smoke's traffic: each worker picks its next
// operation with these weights (out of 12).
var smokeMix = []struct {
	op     string
	weight int
}{{"analyze", 3}, {"lookup", 6}, {"predict", 2}, {"sign", 1}}

// Phases of the smoke run, judged by when a request was sent.
const (
	beforeTerm int32 = iota // before the SIGTERM
	afterTerm               // after it, before the daemon reports draining
	drainSeen               // after /healthz stopped reporting ready
)

var phaseNames = [...]string{"before SIGTERM", "after SIGTERM", "while draining"}

// TestDaemonProcessChaosDrain runs a real pas2pd process in chaos mode
// (message faults in every served sign run), drives it with mixed
// analyze, lookup, predict and sign traffic about cg/4, and sends it a
// real SIGTERM while requests are in flight. Before the signal every
// answer is a checksum-valid 200 or a typed JSON error; once the daemon
// drains, every answer is a typed 503 or a refused connection. The
// process exits 0 inside its drain timeout and its final snapshot
// counts every request answered.
func TestDaemonProcessChaosDrain(t *testing.T) {
	upload, crc := cgUpload(t)
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snapshot.json")
	const drainTimeout, margin = 10 * time.Second, 10 * time.Second
	d := startDaemon(t, "-addr", "127.0.0.1:0", "-repo", filepath.Join(dir, "repo"),
		"-fault-seed", "7", "-faults", "loss=0.05,dup=0.03,delay=0.10",
		"-drain-timeout", drainTimeout.String(), "-snapshot", snapPath)
	// One connection per request: after the drain a request then meets
	// the closed listener, not a stale pooled connection. Uploads wait
	// for 100 Continue (see do).
	tr := &http.Transport{DisableKeepAlives: true, ExpectContinueTimeout: 5 * time.Second}
	sc := &smokeClient{
		base:   d.url,
		hc:     &http.Client{Timeout: time.Minute, Transport: tr},
		upload: upload,
		crc:    crc,
		ok:     map[string]int{},
	}

	// Seed the repository so lookups and predicts have an entry to find.
	sc.send("sign", beforeTerm)

	// Each worker sends until the daemon's listener is gone, pausing
	// between requests once the daemon drains.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for {
				p := sc.phase.Load()
				if p == drainSeen {
					time.Sleep(20 * time.Millisecond)
				}
				if gone := sc.send(pickOp(rng), p); gone {
					return
				}
			}
		}(rand.New(rand.NewSource(int64(7 + w))))
	}
	time.Sleep(3 * time.Second)
	sc.phase.Store(afterTerm)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Errorf("SIGTERM: %v", err)
	}
	termAt := time.Now()
	for sc.phase.Load() != drainSeen && time.Since(termAt) < drainTimeout+margin {
		if st, err := healthz(sc.hc, d.url); err != nil || st != "ready" {
			sc.phase.Store(drainSeen)
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case <-d.exited:
	case <-time.After(drainTimeout + margin - time.Since(termAt)):
		t.Errorf("pas2pd still running %v after SIGTERM", drainTimeout+margin)
		d.cmd.Process.Kill() //nolint:errcheck
		<-d.exited
	}
	wg.Wait()

	out := d.out.String()
	if d.err != nil {
		t.Errorf("pas2pd exited with %v:\n%s", d.err, out)
	}
	if !strings.Contains(out, "drained in") {
		t.Errorf("pas2pd did not report its drain:\n%s", out)
	}
	for _, f := range sc.failures {
		t.Error(f)
	}
	for _, m := range smokeMix {
		if sc.ok[m.op] == 0 {
			t.Errorf("no %s request got a 200 before SIGTERM (200s: %v)", m.op, sc.ok)
		}
	}
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("final snapshot is not JSON: %v", err)
	}
	if got := snap.Counters["service.requests"]; got < int64(sc.responses) {
		t.Errorf("snapshot counts %d requests, the test received %d responses", got, sc.responses)
	}
	t.Logf("%d responses, 200s before SIGTERM %v; %s", sc.responses, sc.ok,
		regexp.MustCompile(`drained in [^\n]*`).FindString(out))
}

// cgUpload traces cg/4 on cluster A and encodes it as the v2 tracefile
// the analyze traffic uploads, with its trailer CRC.
func cgUpload(t *testing.T) ([]byte, uint32) {
	t.Helper()
	a, err := pas2p.MakeApp("cg", 4, "")
	if err != nil {
		t.Fatal(err)
	}
	dep, err := pas2p.NewDeployment(pas2p.ClusterA(), 4, pas2p.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pas2p.RunApp(a, pas2p.RunConfig{Deployment: dep, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pas2p.EncodeTrace(&buf, res.Trace, pas2p.TraceCodecOptions{}); err != nil {
		t.Fatal(err)
	}
	crc, ok := trace.FileCRC(buf.Bytes())
	if !ok {
		t.Fatal("encoded tracefile has no v2 trailer")
	}
	return buf.Bytes(), crc
}

func pickOp(rng *rand.Rand) string {
	n := rng.Intn(12)
	for _, m := range smokeMix {
		if n < m.weight {
			return m.op
		}
		n -= m.weight
	}
	panic("smokeMix weights do not sum to 12")
}

// smokeClient sends the smoke traffic and holds every answer to the
// serving contract of the phase its request was sent in.
type smokeClient struct {
	base   string
	hc     *http.Client
	upload []byte
	crc    uint32
	phase  atomic.Int32

	mu        sync.Mutex
	responses int            // HTTP responses received
	ok        map[string]int // 200s per op to requests sent before SIGTERM
	sha       string         // the signature payload SHA every 200 must carry
	failures  []string
}

// send issues one op and checks its answer; it reports whether the
// daemon's listener is gone.
func (c *smokeClient) send(op string, p int32) (gone bool) {
	status, body, err := c.do(op)
	c.mu.Lock()
	defer c.mu.Unlock()
	fail := func(format string, args ...any) {
		if len(c.failures) < 10 {
			c.failures = append(c.failures, fmt.Sprintf("%s %s: ", op, phaseNames[p])+fmt.Sprintf(format, args...))
		}
	}
	if err != nil {
		// A refused dial fails at once, so the phase now tells whether
		// the dial came after the SIGTERM.
		if c.phase.Load() != beforeTerm && refused(err, strings.TrimPrefix(c.base, "http://")) {
			return true
		}
		fail("transport error: %v", err)
		return true
	}
	c.responses++
	if status != http.StatusOK {
		if code := errorCode(body); code == "" {
			fail("untyped %d answer %.120q", status, body)
		} else if p == drainSeen && status != http.StatusServiceUnavailable {
			fail("%d %s while draining, want a typed 503", status, code)
		}
		return false
	}
	if p == drainSeen {
		fail("200 while draining")
		return false
	}
	if p == beforeTerm {
		c.ok[op]++
	}
	if op == "analyze" {
		var v service.AnalyzeResponse
		if err := json.Unmarshal(body, &v); err != nil || v.TraceCRC32C != c.crc || v.TotalPhases <= 0 {
			fail("analyze answer %.200s does not echo crc %08x (%v)", body, c.crc, err)
		}
		return false
	}
	var v struct {
		PayloadSHA256 string `json:"payload_sha256"`
		PETNS         *int64 `json:"pet_ns"`
	}
	if err := json.Unmarshal(body, &v); err != nil || v.PayloadSHA256 == "" {
		fail("answer %.200s carries no payload SHA (%v)", body, err)
		return false
	}
	if op == "predict" && (v.PETNS == nil || *v.PETNS <= 0) {
		fail("predict answer %.200s has no positive PET", body)
	}
	if c.sha == "" {
		c.sha = v.PayloadSHA256
	} else if v.PayloadSHA256 != c.sha {
		fail("payload SHA %.12s… after %.12s…", v.PayloadSHA256, c.sha)
	}
	return false
}

// do sends one op about cg/4 and returns the answer's status and body.
// An upload asks for 100 Continue first: a typed refusal (draining,
// shed, queue full) then comes before the body is sent. Without it the
// daemon closes the connection on the unread body, and the client,
// still writing, can meet a reset instead of the answer.
func (c *smokeClient) do(op string) (int, []byte, error) {
	var resp *http.Response
	var err error
	switch op {
	case "analyze":
		req, rerr := http.NewRequest(http.MethodPost, c.base+"/v1/analyze", bytes.NewReader(c.upload))
		if rerr != nil {
			return 0, nil, rerr
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set("Expect", "100-continue")
		resp, err = c.hc.Do(req)
	case "lookup":
		resp, err = c.hc.Get(c.base + "/v1/lookup?" + url.Values{"app": {"cg"}, "procs": {"4"}}.Encode())
	case "sign":
		resp, err = c.hc.Post(c.base+"/v1/sign", "application/json", strings.NewReader(`{"app":"cg","procs":4}`))
	case "predict":
		resp, err = c.hc.Post(c.base+"/v1/predict", "application/json", strings.NewReader(`{"app":"cg","procs":4,"target":"B"}`))
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// errorCode returns the code of a typed JSON error body, or "".
func errorCode(body []byte) string {
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &e) != nil {
		return ""
	}
	return e.Error.Code
}

// refused reports whether a transport error means the daemon's
// listener is gone: the dial was refused, or the connection was reset
// unaccepted as the listener closed, which then refuses the next dial.
func refused(err error, addr string) bool {
	if errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	c, derr := net.Dial("tcp", addr)
	if derr == nil {
		c.Close()
		return false
	}
	return errors.Is(derr, syscall.ECONNREFUSED)
}

func healthz(hc *http.Client, base string) (string, error) {
	resp, err := hc.Get(base + "/healthz")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h.Status, err
}

// daemon is a pas2pd process run from this test binary.
type daemon struct {
	cmd    *exec.Cmd
	out    *syncBuffer // stdout and stderr
	url    string
	exited chan struct{}
	err    error // the process's exit, once exited is closed
}

// startDaemon starts pas2pd with args and waits until it serves. A
// cleanup kills and reaps the process, whatever the test's outcome.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: exec.Command(exe, args...), out: &syncBuffer{}, exited: make(chan struct{})}
	d.cmd.Args[0] = "pas2pd"
	d.cmd.Stdout, d.cmd.Stderr = d.out, d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill() //nolint:errcheck // it may have exited
		<-d.exited
	})
	serving := regexp.MustCompile(`serving on (\S+)`)
	timeout := time.After(30 * time.Second)
	for {
		if m := serving.FindStringSubmatch(d.out.String()); m != nil {
			d.url = m[1]
			return d
		}
		select {
		case <-d.exited:
			t.Fatalf("pas2pd exited before serving (%v):\n%s", d.err, d.out)
		case <-timeout:
			t.Fatalf("pas2pd not serving after 30s:\n%s", d.out)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// syncBuffer is a bytes.Buffer safe to write from the process's output
// copier while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
