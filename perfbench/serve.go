package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pas2p"
	"pas2p/internal/service"
	"pas2p/internal/trace"
	"pas2p/internal/workload"
)

// serveConfig fixes the serve workload: the request mix, the traces it
// uploads, the open-loop rates and the latency limits.
type serveConfig struct {
	// keys are the signature keys sign writes and lookup and predict
	// read, all at 8 ranks.
	keys []appCase
	// repeated are traced applications whose tracefiles every step
	// uploads again (cache hits once analysed).
	repeated []appCase
	// A fresh upload is a seeded synthetic trace never sent before in
	// the run (a cache miss); a stream upload is one at least 8 MiB
	// long, which the daemon analyses out of core.
	freshProcs   int
	freshEvents  int64
	streamEvents int64
	// mix weighs lookup, predict, sign and analyze requests: pas2p-loadgen's
	// default mix (analyze=3,lookup=6,predict=2,sign=1). missShare and
	// streamShare split the analyze uploads; they come from no observed
	// traffic but keep stage A and the stream lane in every step.
	mix         map[string]int
	missShare   float64
	streamShare float64
	// nominalRPS is about a quarter of the closed-batch capacity of a
	// 2-CPU host in its fast phases (370-430 req/s) and about 60% of the
	// lowest seen in its slow ones (150-170 req/s): the open loop keeps
	// headroom when the host slows down. The ladder steps are multiples
	// of it.
	nominalRPS float64
	// tracedNominal is the nominal step's length in the traced run,
	// long enough for ten lookup and ten heavy samples beyond p99.
	tracedNominal time.Duration
	ladder        []float64
	stepSeconds   time.Duration
	// capacityBatch requests, sent as a closed batch, make one pass.
	capacityBatch  int
	capacityPasses int
	conns          int
	// A ladder step passes when both p99 latencies stay within these
	// limits and the generator's backlog does not grow.
	heavyLimit, lookupLimit time.Duration
}

var defaultServe = serveConfig{
	keys:           []appCase{{"bt", "", 8}, {"ft", "", 8}, {"sp", "", 8}, {"sweep3d", "", 8}},
	repeated:       []appCase{{"cg", "classA", 8}, {"bt", "classA", 8}},
	freshProcs:     16,
	freshEvents:    10_000,
	streamEvents:   110_000,
	mix:            map[string]int{"lookup": 6, "predict": 2, "sign": 1, "analyze": 3},
	missShare:      0.25,
	streamShare:    0.12,
	nominalRPS:     100,
	tracedNominal:  25 * time.Second,
	ladder:         []float64{0.5, 1, 2, 3, 4},
	stepSeconds:    4 * time.Second,
	capacityBatch:  1000,
	capacityPasses: 3,
	conns:          2,
	heavyLimit:     time.Second,
	lookupLimit:    100 * time.Millisecond,
}

func runServe(ctx context.Context, e *env) (*outcome, error) {
	return serveWorkload(ctx, e, defaultServe)
}

// upload is one tracefile the generator can POST to /v1/analyze.
type upload struct {
	name   string
	data   []byte
	crc    uint32
	events int
	stream bool
	// A fresh upload is a seeded synthetic trace whose bytes are made
	// just before it is sent and again when its answer is checked, so a
	// step holds only a window of them in memory.
	fresh       bool
	procs       int
	seed        uint64
	synthEvents int64
	err         error
	// table is the benchmark's own analysis of the upload, made when
	// the first answer for it is checked.
	table *pas2p.PhaseTable
}

// materialize makes a fresh upload's bytes.
func (u *upload) materialize() error {
	v, err := synthUpload(u.name, u.procs, u.synthEvents, u.seed, u.stream)
	if err != nil {
		return err
	}
	u.data, u.crc, u.events = v.data, v.crc, v.events
	return nil
}

// request is one scheduled call.
type request struct {
	kind string // lookup, predict, sign or analyze
	key  appCase
	up   *upload
}

// class is the latency class the serve_* metrics use.
func (r *request) class() string {
	switch {
	case r.kind == "lookup":
		return "lookup"
	case r.kind == "analyze" && r.up.stream:
		return "stream"
	}
	return "heavy"
}

func keyName(k appCase) string { return k.app + "/" + strconv.Itoa(k.procs) }

// daemon is a running pas2pd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startDaemon runs pas2pd on a free loopback port with a fresh
// repository and waits until it reports ready.
func startDaemon(ctx context.Context, bin, repo, tmp string, log io.Writer) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("serve needs the pas2pd binary (-pas2pd)")
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-repo", repo)
	// Upload spools go under the run's scratch directory.
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	cmd.Stderr = log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	found := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "serving on "); ok && !sent {
				found <- strings.Fields(rest)[0]
				sent = true
			}
		}
		_ = cmd.Wait() // the exit status is of no interest once stdout closes
		close(d.done)
	}()
	select {
	case d.base = <-found:
	case <-d.done:
		return nil, errors.New("pas2pd exited before serving")
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, errors.New("pas2pd did not start serving within 20s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && bytes.Contains(b, []byte(`"ready"`)) {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("pas2pd at %s never became ready", d.base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, and
// waits until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// cpu is the daemon's CPU time so far: the sum over its threads of the
// first field of /proc/<pid>/task/<tid>/schedstat, in nanoseconds. The
// Go runtime keeps the threads it starts, so no thread's time is lost.
func (d *daemon) cpu() (time.Duration, error) {
	dir := "/proc/" + d.pid() + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread ended since the directory was read
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s/%s/schedstat: %w", dir, t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// snapshot is the part of /metrics.json the benchmark reads.
type snapshot struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Bounds []float64 `json:"bounds"`
		Counts []int64   `json:"counts"`
	} `json:"histograms"`
}

func (d *daemon) metrics() (*snapshot, error) {
	resp, err := http.Get(d.base + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decoding /metrics.json: %w", err)
	}
	return &s, nil
}

// histP99 is the 99th percentile of the observations a histogram
// gained between two snapshots, interpolated inside its bucket.
func histP99(before, after *snapshot, name string) float64 {
	a, b := after.Histograms[name], before.Histograms[name]
	counts := make([]int64, len(a.Counts))
	var total int64
	for i := range a.Counts {
		counts[i] = a.Counts[i]
		if i < len(b.Counts) {
			counts[i] -= b.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := 0.99 * float64(total)
	var seen int64
	for i, c := range counts {
		if float64(seen+c) >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = a.Bounds[i-1]
			}
			if i >= len(a.Bounds) {
				return lo * 1000
			}
			return (lo + (a.Bounds[i]-lo)*(rank-float64(seen))/float64(c)) * 1000
		}
		seen += c
	}
	return 0
}

// server drives one daemon: it makes uploads, sends requests and checks
// every answer.
type server struct {
	cfg     serveConfig
	log     io.Writer
	d       *daemon
	clients []*http.Client
	rng     *rand.Rand
	seed    int64
	fresh   int // fresh uploads made so far
	hits    []*upload
	ledger  *shaLedger
	pets    map[string]int64
}

func (s *server) send(ctx context.Context, conn int, r *request) reply {
	var (
		req *http.Request
		err error
	)
	switch r.kind {
	case "lookup":
		q := url.Values{"app": {r.key.app}, "procs": {strconv.Itoa(r.key.procs)}}
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, s.d.base+"/v1/lookup?"+q.Encode(), nil)
	case "predict":
		req, err = jsonPost(ctx, s.d.base+"/v1/predict", service.PredictRequest{App: r.key.app, Procs: r.key.procs})
	case "sign":
		req, err = jsonPost(ctx, s.d.base+"/v1/sign", service.SignRequest{App: r.key.app, Procs: r.key.procs})
	case "analyze":
		if r.up.err != nil {
			return reply{err: r.up.err}
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, s.d.base+"/v1/analyze", bytes.NewReader(r.up.data))
	}
	if err != nil {
		return reply{err: err}
	}
	return doHTTP(s.clients[conn], req)
}

func jsonPost(ctx context.Context, u string, v any) (*http.Request, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// check judges one answer. A refusal, an expired deadline or any other
// non-200 answer is a failure, as is a 200 whose content is wrong.
func (s *server) check(r *request, rep reply) error {
	if rep.err != nil {
		return fmt.Errorf("%s: %w", r.kind, rep.err)
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", r.kind, keyName(r.key), rep.status, bytes.TrimSpace(rep.body))
	}
	switch r.kind {
	case "lookup":
		var v service.LookupResponse
		if err := json.Unmarshal(rep.body, &v); err != nil {
			return fmt.Errorf("lookup: %w", err)
		}
		if v.App != r.key.app || v.Procs != r.key.procs {
			return fmt.Errorf("lookup %s answered %s/%d", keyName(r.key), v.App, v.Procs)
		}
		return s.ledger.check(keyName(r.key), v.PayloadSHA256)
	case "sign":
		var v service.SignResponse
		if err := json.Unmarshal(rep.body, &v); err != nil {
			return fmt.Errorf("sign: %w", err)
		}
		return s.ledger.check(keyName(r.key), v.PayloadSHA256)
	case "predict":
		var v service.PredictResponse
		if err := json.Unmarshal(rep.body, &v); err != nil {
			return fmt.Errorf("predict: %w", err)
		}
		if v.Degraded || v.PETNS <= 0 {
			return fmt.Errorf("predict %s: degraded or empty prediction", keyName(r.key))
		}
		if first, ok := s.pets[keyName(r.key)]; ok && first != v.PETNS {
			return fmt.Errorf("predict %s: PET %d, earlier answer %d", keyName(r.key), v.PETNS, first)
		}
		s.pets[keyName(r.key)] = v.PETNS
		return s.ledger.check(keyName(r.key), v.PayloadSHA256)
	default:
		var v service.AnalyzeResponse
		if err := json.Unmarshal(rep.body, &v); err != nil {
			return fmt.Errorf("analyze: %w", err)
		}
		tb, err := offlineTable(r.up)
		if err != nil {
			return err
		}
		return checkAnalyzeAnswer(&v, r.up.crc, tb, r.up.events)
	}
}

// offlineTable is the benchmark's own in-core analysis of an upload.
func offlineTable(up *upload) (*pas2p.PhaseTable, error) {
	if up.table != nil {
		return up.table, nil
	}
	if up.fresh {
		if err := up.materialize(); err != nil {
			return nil, err
		}
		defer func() { up.data = nil }()
	}
	tr, err := pas2p.DecodeTrace(bytes.NewReader(up.data), pas2p.TraceCodecOptions{})
	if err != nil {
		return nil, fmt.Errorf("offline decode of %s: %w", up.name, err)
	}
	_, tb, err := pas2p.Analyze(tr, pas2p.DefaultPhaseConfig(), 1)
	if err != nil {
		return nil, fmt.Errorf("offline analysis of %s: %w", up.name, err)
	}
	up.table = tb
	return tb, nil
}

func encodeUpload(name string, tr *pas2p.Trace, stream bool) (*upload, error) {
	var buf bytes.Buffer
	if err := pas2p.EncodeTrace(&buf, tr, pas2p.TraceCodecOptions{}); err != nil {
		return nil, err
	}
	return newUpload(name, buf.Bytes(), len(tr.Events), stream)
}

func newUpload(name string, data []byte, events int, stream bool) (*upload, error) {
	crc, ok := trace.FileCRC(data)
	if !ok {
		return nil, fmt.Errorf("%s: tracefile has no v2 trailer", name)
	}
	if stream && len(data) < 8<<20 {
		return nil, fmt.Errorf("%s: %d bytes is below the 8 MiB stream threshold", name, len(data))
	}
	return &upload{name: name, data: data, crc: crc, events: events, stream: stream}, nil
}

// synthUpload is a seeded synthetic ring trace.
func synthUpload(name string, procs int, events int64, seed uint64, stream bool) (*upload, error) {
	var buf bytes.Buffer
	meta, err := workload.Synthesize(&buf, workload.SynthSpec{Procs: procs, TargetEvents: events, Seed: seed})
	if err != nil {
		return nil, err
	}
	return newUpload(name, buf.Bytes(), int(meta.Events), stream)
}

// makeUploads builds the uploads that repeat: one tracefile per
// repeated application and one stream-lane trace.
func makeUploads(cfg serveConfig, seed int64) ([]*upload, error) {
	apps, err := prepareApps(cfg.repeated)
	if err != nil {
		return nil, err
	}
	var out []*upload
	for _, p := range apps {
		rr, err := pas2p.RunApp(p.app, pas2p.RunConfig{Deployment: p.dep, Trace: true, EventOverhead: eventOverhead})
		if err != nil {
			return nil, err
		}
		up, err := encodeUpload(p.app.Name, rr.Trace, false)
		if err != nil {
			return nil, err
		}
		out = append(out, up)
	}
	up, err := synthUpload("stream-repeat", cfg.freshProcs, cfg.streamEvents, uint64(seed)<<20, true)
	if err != nil {
		return nil, err
	}
	return append(out, up), nil
}

// requests deals n requests in the mix's exact proportions, keys in
// turn, and shuffles them with the run's seed. Fresh uploads get seeds
// no other upload of the run uses.
func (s *server) requests(n int) []*request {
	kinds := []string{"lookup", "predict", "sign", "analyze"}
	total := 0
	for _, k := range kinds {
		total += s.cfg.mix[k]
	}
	share := func(x int, f float64) int { return int(math.Round(float64(x) * f)) }
	out := make([]*request, 0, n)
	for _, k := range kinds[:3] {
		for i := share(n, float64(s.cfg.mix[k])/float64(total)); i > 0; i-- {
			out = append(out, &request{kind: k, key: s.cfg.keys[len(out)%len(s.cfg.keys)]})
		}
	}
	uploads := n - len(out)
	streams := share(uploads, s.cfg.streamShare)
	for _, lane := range []struct {
		count  int
		stream bool
	}{{uploads - streams, false}, {streams, true}} {
		fresh := share(lane.count, s.cfg.missShare)
		for i := 0; i < lane.count; i++ {
			r := &request{kind: "analyze"}
			switch {
			case i < fresh:
				s.fresh++
				r.up = &upload{name: fmt.Sprintf("fresh-%d", s.fresh), stream: lane.stream, fresh: true,
					procs: s.cfg.freshProcs, seed: uint64(s.seed)<<20 + uint64(s.fresh), synthEvents: s.cfg.freshEvents}
				if lane.stream {
					r.up.synthEvents = s.cfg.streamEvents
				}
			case lane.stream:
				r.up = s.hits[len(s.hits)-1]
			default:
				r.up = s.hits[i%(len(s.hits)-1)]
			}
			out = append(out, r)
		}
	}
	s.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// step is one open-loop (or closed-batch) run of requests. prepared is
// when each request's upload was ready to send; the time from picking
// the request up to then is the generator's own wait for its preparer.
type step struct {
	reqs     []*request
	tm       []timing
	errs     []error
	prepared []time.Duration
	wall     time.Duration
}

// prepareWait is how long request i waited for its upload to be made.
func (st *step) prepareWait(i int) time.Duration {
	return max(0, st.prepared[i]-st.tm[i].begin)
}

// run sends a fresh draw of requests at the due times and checks every
// answer. With a recorder, each request gets a span tree: the HTTP
// call's span is recorded live around the call; the request's root
// span, from its due time, and the generator's own waits are added from
// the generator's instants once the step is over.
func (s *server) run(ctx context.Context, due []time.Duration, rec *recorder) (*step, error) {
	reqs := s.requests(len(due))
	ops, calls := make([]int, len(reqs)), make([]int, len(reqs))
	ready := make([]time.Time, len(reqs))
	p := startPreparer(ctx, reqs)
	defer p.stop()
	tm, t0 := openLoop(ctx, due, s.cfg.conns, func(ctx context.Context, conn, i int) reply {
		err := p.wait(ctx, i)
		ready[i] = time.Now()
		if err != nil {
			return reply{err: err}
		}
		defer p.done(reqs[i])
		rctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		defer cancel()
		if rec == nil {
			return s.send(rctx, conn, reqs[i])
		}
		ops[i] = rec.newOp()
		calls[i] = rec.start(ops[i], 0, "http.call")
		rep := s.send(rctx, conn, reqs[i])
		rec.end(calls[i])
		return rep
	})
	st := &step{reqs: reqs, tm: tm, wall: time.Since(t0), errs: make([]error, len(reqs)),
		prepared: make([]time.Duration, len(reqs))}
	for i, r := range reqs {
		st.errs[i] = s.check(r, tm[i].reply)
		tm[i].reply.body = nil
		if !ready[i].IsZero() {
			st.prepared[i] = ready[i].Sub(t0)
		}
		if rec == nil || calls[i] == 0 {
			continue
		}
		base, t := rec.at(t0), tm[i]
		root := rec.add(ops[i], 0, "request", base+t.due, base+t.end)
		rec.add(ops[i], root, "loadgen.dispatch", base+t.due, base+t.queued)
		rec.add(ops[i], root, "loadgen.conn_wait", base+t.queued, base+t.begin)
		rec.add(ops[i], root, "loadgen.prepare_wait", base+t.begin, base+st.prepared[i])
		rec.adopt(root, calls[i])
	}
	return st, ctx.Err()
}

// preparer makes fresh uploads' bytes ahead of the requests that send
// them, at most lookahead requests ahead of the ones still in flight.
type preparer struct {
	ready  []chan struct{}
	slots  chan struct{}
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// lookahead bounds how many requests' uploads exist at once.
const lookahead = 32

// startPreparer starts making uploads and returns once the first
// window is ready, so the step's clock starts with the preparer ahead.
func startPreparer(ctx context.Context, reqs []*request) *preparer {
	ctx, cancel := context.WithCancel(ctx)
	p := &preparer{ready: make([]chan struct{}, len(reqs)), slots: make(chan struct{}, lookahead), cancel: cancel}
	for i := range p.ready {
		p.ready[i] = make(chan struct{})
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for i, r := range reqs {
			select {
			case p.slots <- struct{}{}:
			case <-ctx.Done():
				return
			}
			if r.up != nil && r.up.fresh {
				r.up.err = r.up.materialize()
			}
			close(p.ready[i])
		}
	}()
	if n := min(lookahead, len(reqs)); n > 0 {
		select {
		case <-p.ready[n-1]:
		case <-ctx.Done():
		}
	}
	return p
}

// wait blocks until request i's upload exists.
func (p *preparer) wait(ctx context.Context, i int) error {
	select {
	case <-p.ready[i]:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// done frees a sent request's slot, and a fresh upload's bytes.
func (p *preparer) done(r *request) {
	if r.up != nil && r.up.fresh {
		r.up.data = nil
	}
	<-p.slots
}

// stop ends the preparer and waits for it.
func (p *preparer) stop() {
	p.cancel()
	p.wg.Wait()
}

// latencies returns the latencies of the step's requests that match
// keep, in milliseconds; a failed request counts as infinitely slow.
func (st *step) latencies(keep func(*request, reply) bool) []float64 {
	var out []float64
	for i, r := range st.reqs {
		if !keep(r, st.tm[i].reply) {
			continue
		}
		if st.errs[i] != nil {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(st.tm[i].latency()))
	}
	return out
}

func ofClass(c string) func(*request, reply) bool {
	return func(r *request, _ reply) bool { return r.class() == c }
}

// ladderStep is one ladder step's verdict.
type ladderStep struct {
	rps, heavyP99, lookupP99 float64
	backlogMid, backlogEnd   int
	pass                     bool
}

// judge checks the step against both p99 limits and for a growing
// backlog, and counts the requests per second it answered.
func (st *step) judge(cfg serveConfig, d time.Duration) ladderStep {
	ok := 0
	for _, err := range st.errs {
		if err == nil {
			ok++
		}
	}
	l := ladderStep{
		rps:        float64(ok) / d.Seconds(),
		heavyP99:   quantile(st.latencies(func(r *request, _ reply) bool { return r.class() != "lookup" }), 0.99),
		lookupP99:  quantile(st.latencies(ofClass("lookup")), 0.99),
		backlogMid: backlog(st.tm, d/2),
		backlogEnd: backlog(st.tm, d),
	}
	l.pass = l.heavyP99 <= ms(cfg.heavyLimit) && l.lookupP99 <= ms(cfg.lookupLimit) &&
		l.backlogEnd <= l.backlogMid+2*cfg.conns
	return l
}

func serveWorkload(ctx context.Context, e *env, cfg serveConfig) (*outcome, error) {
	out := newOutcome()
	n := 0
	s, setup, err := timeSetup(e, setupRuns, func() (*server, func(), error) {
		hits, err := makeUploads(cfg, e.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("making uploads: %w", err)
		}
		n++
		dir := filepath.Join(e.work, fmt.Sprintf("serve-%d", n))
		d, err := startDaemon(ctx, e.pas2pd, filepath.Join(dir, "repo"), filepath.Join(dir, "tmp"), e.log)
		if err != nil {
			return nil, nil, err
		}
		srv := &server{cfg: cfg, log: e.log, d: d, clients: newConnClients(cfg.conns), seed: e.seed,
			rng: rand.New(rand.NewSource(e.seed)), hits: hits, ledger: newSHALedger(),
			pets: map[string]int64{}}
		for _, k := range cfg.keys {
			r := &request{kind: "sign", key: k}
			if err := srv.check(r, srv.send(ctx, 0, r)); err != nil {
				srv.close()
				return nil, nil, fmt.Errorf("seeding the repository: %w", err)
			}
		}
		return srv, srv.close, nil
	}, func(s *server) (time.Duration, error) { return s.d.cpu() })
	if err != nil {
		return nil, err
	}
	defer s.close()
	out.setup(setup)

	var nominal *step
	if e.traced {
		nominal, err = s.traced(ctx, e, out)
	} else {
		nominal, err = s.untraced(ctx, e, out)
	}
	if err != nil {
		return nil, err
	}
	var failed int
	for _, err := range nominal.errs {
		out.op(err)
		if err != nil {
			failed++
		}
	}
	out.values["ok_ratio"] = 1 - float64(failed)/float64(len(nominal.reqs))
	out.values["fail_ratio"] = float64(failed) / float64(len(nominal.reqs))
	rss, err := peakRSSMiB(s.d.pid())
	if err != nil {
		return nil, err
	}
	out.values["peak_rss_mib"] = rss
	return out, nil
}

func (s *server) close() {
	closeClients(s.clients)
	s.d.stop()
}

// capacity sends capacityPasses closed batches and returns what each
// cost: its wall time and the daemon's CPU time. With a recorder, each
// untraced batch is paired with a traced one, the two sides taking
// turns to go first.
func (s *server) capacity(ctx context.Context, rec *recorder, out *outcome) (plain, traced []cost, err error) {
	for i := 0; i < s.cfg.capacityPasses; i++ {
		sides := []*recorder{nil}
		if rec != nil {
			sides = []*recorder{nil, rec}
			if i%2 == 1 {
				sides = []*recorder{rec, nil}
			}
		}
		for _, r := range sides {
			c0, err := s.d.cpu()
			if err != nil {
				return nil, nil, err
			}
			st, err := s.run(ctx, make([]time.Duration, s.cfg.capacityBatch), r)
			if err != nil {
				return nil, nil, err
			}
			c1, err := s.d.cpu()
			if err != nil {
				return nil, nil, err
			}
			for _, err := range st.errs {
				out.op(err)
			}
			fmt.Fprintf(s.log, "serve: batch of %d (traced %v): %.3fs wall, daemon cpu %.2fs\n",
				len(st.reqs), r != nil, st.wall.Seconds(), (c1 - c0).Seconds())
			if r == nil {
				plain = append(plain, cost{wall: st.wall, cpu: c1 - c0})
			} else {
				traced = append(traced, cost{wall: st.wall, cpu: c1 - c0})
			}
		}
	}
	return plain, traced, nil
}

// untraced measures the end-to-end metrics: the capacity batches, then
// an open loop at the nominal rate for the run's length.
func (s *server) untraced(ctx context.Context, e *env, out *outcome) (*step, error) {
	plain, _, err := s.capacity(ctx, nil, out)
	if err != nil {
		return nil, err
	}
	out.values["pass_cpu_s"] = medianCPUSeconds(plain)
	nominal, err := s.run(ctx, poissonSchedule(s.rng, s.cfg.nominalRPS, e.seconds), nil)
	if err != nil {
		return nil, err
	}
	for _, c := range []string{"lookup", "heavy", "stream"} {
		xs := nominal.latencies(ofClass(c))
		fmt.Fprintf(e.log, "serve: nominal %s p50 %.2fms over %d requests\n", c, median(xs), len(xs))
	}
	return nominal, nil
}

// traced reports the per-layer serve metrics. The capacity batches,
// traced and untraced in turn, give the tracing overhead. A traced
// nominal step, long enough for ten samples beyond every reported
// percentile, gives the serve_* latency figures, the generator's own
// lateness and the daemon's counters read before and after it. The
// ladder then finds the highest rate that meets the limits.
func (s *server) traced(ctx context.Context, e *env, out *outcome) (*step, error) {
	rec := newRecorder()
	plain, traced, err := s.capacity(ctx, rec, out)
	if err != nil {
		return nil, err
	}
	v := out.values
	v["bench.trace_overhead_pct"] = 100 * (medianWallSeconds(traced) - medianWallSeconds(plain)) / medianWallSeconds(plain)
	v["bench.pass_wall_s"] = medianWallSeconds(plain)

	before, err := s.d.metrics()
	if err != nil {
		return nil, err
	}
	nominal, err := s.run(ctx, poissonSchedule(s.rng, s.cfg.nominalRPS, s.cfg.tracedNominal), rec)
	if err != nil {
		return nil, err
	}
	after, err := s.d.metrics()
	if err != nil {
		return nil, err
	}
	self := rec.selfTimes()
	v["bench.stage_coverage_pct"] = 100 * (self["loadgen.dispatch"] + self["loadgen.conn_wait"] +
		self["loadgen.prepare_wait"] + self["http.call"]).Seconds() / rec.wall("request").Seconds()

	pct := func(xs []float64, q float64, name string) {
		x, ok := tailQuantile(xs, q)
		switch {
		case !ok:
			fmt.Fprintf(e.log, "serve: %s has %d samples, too few for its percentile\n", name, len(xs))
		case math.IsInf(x, 1):
			fmt.Fprintf(e.log, "serve: %s is over every limit: too many of its %d requests failed\n", name, len(xs))
		default:
			v[name] = x
		}
	}
	lookup, heavy, stream := nominal.latencies(ofClass("lookup")), nominal.latencies(ofClass("heavy")), nominal.latencies(ofClass("stream"))
	pct(lookup, 0.5, "serve_lookup_p50_ms")
	pct(lookup, 0.99, "serve_lookup_p99_ms")
	pct(heavy, 0.5, "serve_heavy_p50_ms")
	pct(heavy, 0.99, "serve_heavy_p99_ms")
	pct(stream, 0.5, "serve_stream_p50_ms")
	v["serve_lookup_samples"] = float64(len(lookup))
	v["serve_heavy_samples"] = float64(len(heavy))
	v["serve_stream_samples"] = float64(len(stream))
	for _, split := range []struct{ name, mode, cache string }{
		{"incore_hit", "in-core", "hit"}, {"incore_miss", "in-core", "miss"},
		{"stream_hit", "stream", "hit"}, {"stream_miss", "stream", "miss"},
	} {
		xs := nominal.latencies(func(r *request, rep reply) bool {
			return r.kind == "analyze" && rep.mode == split.mode && rep.cache == split.cache
		})
		if x := median(xs); len(xs) > 0 && !math.IsInf(x, 1) {
			v["serve.analyze."+split.name+"_p50_ms"] = x
		}
	}
	var late, wait, prep []float64
	for i, t := range nominal.tm {
		late = append(late, ms(t.late()))
		wait = append(wait, ms(t.connWait()))
		prep = append(prep, ms(nominal.prepareWait(i)))
	}
	pct(late, 0.99, "loadgen.late_ms_p99")
	pct(wait, 0.99, "loadgen.conn_wait_ms_p99")
	pct(prep, 0.99, "loadgen.prepare_wait_ms_p99")

	c := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	hits, misses := c("service.cache_hits"), c("service.cache_misses")
	v["service.cache_lookups"] = float64(hits + misses)
	if hits+misses > 0 {
		v["service.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	v["service.singleflight_dedups"] = float64(c("service.singleflight_dedups"))
	for _, cl := range serviceClasses {
		for _, f := range []string{"admitted", "shed_queue_full", "shed_infeasible"} {
			v["service."+cl+"."+f] = float64(c("service." + cl + "." + f))
		}
		v["service."+cl+".server_p99_ms"] = histP99(before, after, "service.latency_"+cl+"_seconds")
	}
	for _, name := range []string{"repo.lock_wait_ns", "repo.writes", "repo.verified"} {
		v[name] = float64(c(name))
	}

	if err := rec.save(e.spans); err != nil {
		return nil, err
	}
	for _, m := range s.cfg.ladder {
		st, err := s.run(ctx, poissonSchedule(s.rng, m*s.cfg.nominalRPS, s.cfg.stepSeconds), nil)
		if err != nil {
			return nil, err
		}
		for i, err := range st.errs {
			// Refusals and expired deadlines above capacity are what
			// the ladder looks for; a wrong 200 is a failure at any rate.
			if st.tm[i].reply.status == http.StatusOK {
				out.op(err)
			}
		}
		l := st.judge(s.cfg, s.cfg.stepSeconds)
		fmt.Fprintf(e.log, "serve: ladder %.0f req/s: answered %.1f req/s, p99 heavy %.1fms lookup %.1fms, backlog %d->%d, pass %v\n",
			m*s.cfg.nominalRPS, l.rps, l.heavyP99, l.lookupP99, l.backlogMid, l.backlogEnd, l.pass)
		if l.pass {
			v["serve_max_rps"] = l.rps
		}
	}
	return nominal, nil
}
