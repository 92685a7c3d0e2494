// Package service is the hardened HTTP/JSON signature service: the
// PAS2P pipeline (submit-trace→analyze, sign, lookup, predict) served
// over the pas2p pipeline functions and sigrepo, wrapped in
// the robustness kit a long-running daemon needs to stay correct and
// responsive while faults are actively firing:
//
//   - per-request deadlines propagated as contexts into the pipeline
//     (cancellation checked at stage boundaries), with a hard "no
//     deadline-blown 200s" rule — an expired request gets a typed 504
//     even when its result limped in;
//   - a bounded admission queue per cost class (heavy analyze/sign/
//     predict vs. cheap lookup) with cost-aware load shedding: queue
//     overflow is a 429, an infeasible deadline is shed with a 503
//     before any work starts, both with Retry-After;
//   - per-request panic isolation: a panicking handler kills its
//     request (typed 500, stack on the flight recorder), never the
//     server;
//   - an LRU analysis cache keyed by the SHA-256 of the uploaded bytes
//     with single-flight dedup of concurrent identical submissions;
//   - graceful drain: stop accepting, finish or shed in-flight work
//     inside the drain deadline, flush a final obs snapshot;
//   - a crash-safe sigrepo underneath (jittered lock retry, fsck),
//     with repository corruption surfacing as a typed, retryable 503.
//
// The chaos property the service is tested against: with a fault-
// injecting filesystem under the repository and an active fault spec
// in the pipeline, every request either succeeds with a checksum-
// valid answer or fails cleanly with a typed error, and post-fsck
// predictions are bit-identical to a healthy baseline.
package service

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"pas2p/internal/faults"
	"pas2p/internal/fsx"
	"pas2p/internal/obs"
	"pas2p/internal/sigrepo"
)

// Config assembles a Service. The zero value of every field selects a
// production-shaped default; tests shrink deadlines and queues.
type Config struct {
	// RepoDir roots the signature repository (required).
	RepoDir string
	// FS is the repository's filesystem seam; nil selects the real
	// filesystem. Chaos mode passes a faults.FaultFS here.
	FS fsx.FS
	// Observer receives service.* metrics, spans and flight events.
	// Nil builds a fresh observer with a flight recorder.
	Observer *obs.Observer
	// Faults, when non-nil, injects deterministic pipeline faults into
	// served sign runs (the daemon's chaos mode).
	Faults *faults.Injector

	// HeavySlots bounds concurrently executing heavy requests
	// (analyze, sign, predict, fsck); 0 selects GOMAXPROCS.
	HeavySlots int
	// HeavyQueue bounds heavy requests waiting beyond the slot
	// holders; 0 selects 4×HeavySlots. Negative means no queue.
	HeavyQueue int
	// LightSlots/LightQueue do the same for the cheap lookup class;
	// 0 selects 4×GOMAXPROCS slots and an 8×slots queue.
	LightSlots int
	LightQueue int

	// HeavyDeadline/LightDeadline are the default per-request
	// deadlines (0: 30s heavy, 2s light). A client may tighten its own
	// deadline with the X-Deadline-Ms header, never widen it.
	HeavyDeadline time.Duration
	LightDeadline time.Duration

	// CacheEntries sizes the analysis LRU (0: 128).
	CacheEntries int
	// MaxBodyBytes caps uploaded request bodies (0: 64 MiB).
	MaxBodyBytes int64

	// The stream lane: analyze uploads whose declared Content-Length is
	// at least StreamThresholdBytes are spooled to disk and analysed
	// out-of-core (phase.Analyze over the spool's rank streams), so the
	// body cap for them can sit far above MaxBodyBytes without heap
	// risk. The lane has its own
	// admission class ("stream") — slots, queue and EWMA cost model —
	// because a multi-gigabyte analysis would otherwise poison the heavy
	// class's service-time estimate and shed ordinary requests.

	// StreamThresholdBytes routes analyze uploads with ContentLength >=
	// this to the stream lane (0: 8 MiB; negative disables streaming).
	// Chunked uploads (unknown length) always stay in-core.
	StreamThresholdBytes int64
	// StreamBodyBytes caps a streamed upload's body (0: 4 GiB).
	StreamBodyBytes int64
	// StreamMemBudget bounds resident phase matrices during an
	// out-of-core analysis; cold matrices spill to scratch files
	// (0: 256 MiB).
	StreamMemBudget int64
	// StreamSlots/StreamQueue bound the stream class (0: 1 slot —
	// streamed analyses are disk-bound, serialising them protects the
	// spool directory — and a 2-deep queue). Negative queue means none.
	StreamSlots int
	StreamQueue int
	// StreamDeadline is the stream class's default per-request deadline
	// (0: 4x HeavyDeadline).
	StreamDeadline time.Duration
}

func (c Config) withDefaults() Config {
	if c.FS == nil {
		c.FS = fsx.OS{}
	}
	if c.Observer == nil {
		c.Observer = obs.New()
	}
	if c.Observer.Flight == nil {
		c.Observer.Flight = obs.NewFlightRecorder(0)
	}
	if c.HeavySlots <= 0 {
		c.HeavySlots = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.HeavyQueue == 0:
		c.HeavyQueue = 4 * c.HeavySlots
	case c.HeavyQueue < 0:
		c.HeavyQueue = 0
	}
	if c.LightSlots <= 0 {
		c.LightSlots = 4 * runtime.GOMAXPROCS(0)
	}
	switch {
	case c.LightQueue == 0:
		c.LightQueue = 8 * c.LightSlots
	case c.LightQueue < 0:
		c.LightQueue = 0
	}
	if c.HeavyDeadline <= 0 {
		c.HeavyDeadline = 30 * time.Second
	}
	if c.LightDeadline <= 0 {
		c.LightDeadline = 2 * time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.StreamThresholdBytes == 0 {
		c.StreamThresholdBytes = 8 << 20
	}
	if c.StreamBodyBytes <= 0 {
		c.StreamBodyBytes = 4 << 30
	}
	if c.StreamMemBudget <= 0 {
		c.StreamMemBudget = 256 << 20
	}
	if c.StreamSlots <= 0 {
		c.StreamSlots = 1
	}
	switch {
	case c.StreamQueue == 0:
		c.StreamQueue = 2 * c.StreamSlots
	case c.StreamQueue < 0:
		c.StreamQueue = 0
	}
	if c.StreamDeadline <= 0 {
		c.StreamDeadline = 4 * c.HeavyDeadline
	}
	return c
}

// Service is the signature service's request-independent state. Build
// with New, expose with Handler, stop with Drain.
type Service struct {
	cfg  Config
	repo *sigrepo.Repo
	o    *obs.Observer
	reg  *obs.Registry

	heavy  *admitter
	light  *admitter
	stream *admitter
	cache  *lruCache
	group  *flightGroup

	// baseCtx parents every request context; cancelBase is the drain
	// deadline's hammer — it sheds whatever is still in flight.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	draining atomic.Bool
	shedding atomic.Bool // set when the drain deadline forced cancelBase
	inflight atomic.Int64
	drained  chan struct{} // closed once draining && inflight == 0
	closing  atomic.Bool   // guards double-close of drained

	// Metrics cells resolved once (hot paths must not re-lookup).
	mReqs      *obs.Counter
	mOK        *obs.Counter
	mTypedErrs *obs.Counter
	mPanics    *obs.Counter
	mCacheHit  *obs.Counter
	mCacheMiss *obs.Counter
	mDedup     *obs.Counter
	mAbandoned *obs.Counter
	mDrainFin  *obs.Counter
	mDrainShed *obs.Counter
	latHeavy   *obs.Histogram
	latLight   *obs.Histogram
	latStream  *obs.Histogram

	// afterAdmit is a test seam: it runs after admission, inside the
	// request, with the request context (panic isolation tests throw
	// from here; drain tests block here until cancelled).
	afterAdmit func(ctx context.Context, op string)
	// createSpool is a test seam: when set, it opens the file a
	// streamed upload is spooled to in place of a fresh temporary file,
	// and the handler closes that file but does not remove it.
	createSpool func() (*os.File, error)
}

// latencyBounds: 100µs .. 50s in a 1-2-5 series (seconds).
var latencyBounds = []float64{
	0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
	0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50,
}

// New opens the repository and assembles the service.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.RepoDir == "" {
		return nil, fmt.Errorf("service: Config.RepoDir is required")
	}
	reg := cfg.Observer.Reg()
	repo, err := sigrepo.OpenFS(cfg.RepoDir, cfg.FS, reg)
	if err != nil {
		return nil, err
	}
	repo.SetObserver(cfg.Observer)
	if cfg.Faults != nil {
		cfg.Faults.SetObserver(cfg.Observer)
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		repo:       repo,
		o:          cfg.Observer,
		reg:        reg,
		heavy:      newAdmitter("heavy", cfg.HeavySlots, cfg.HeavyQueue, 50*time.Millisecond, reg),
		light:      newAdmitter("light", cfg.LightSlots, cfg.LightQueue, 2*time.Millisecond, reg),
		stream:     newAdmitter("stream", cfg.StreamSlots, cfg.StreamQueue, 2*time.Second, reg),
		cache:      newLRUCache(cfg.CacheEntries),
		group:      newFlightGroup(),
		baseCtx:    baseCtx,
		cancelBase: cancel,
		drained:    make(chan struct{}),
		mReqs:      reg.Counter("service.requests"),
		mOK:        reg.Counter("service.ok"),
		mTypedErrs: reg.Counter("service.typed_errors"),
		mPanics:    reg.Counter("service.panics"),
		mCacheHit:  reg.Counter("service.cache_hits"),
		mCacheMiss: reg.Counter("service.cache_misses"),
		mDedup:     reg.Counter("service.singleflight_dedups"),
		mAbandoned: reg.Counter("service.abandoned_workers"),
		mDrainFin:  reg.Counter("service.drain_finished"),
		mDrainShed: reg.Counter("service.drain_shed"),
		latHeavy:   reg.Histogram("service.latency_heavy_seconds", latencyBounds),
		latLight:   reg.Histogram("service.latency_light_seconds", latencyBounds),
		latStream:  reg.Histogram("service.latency_stream_seconds", latencyBounds),
	}
	return s, nil
}

// Observer returns the service's observer (for mounting telemetry and
// dumping the flight recorder).
func (s *Service) Observer() *obs.Observer { return s.o }

// Repo exposes the underlying repository (tests seed and fsck it).
func (s *Service) Repo() *sigrepo.Repo { return s.repo }

// Draining reports whether Drain has begun.
func (s *Service) Draining() bool { return s.draining.Load() }

// enter admits one request into the in-flight account; it fails once
// draining has begun so the listener can stop accepting while
// in-flight work finishes.
func (s *Service) enter() bool {
	s.inflight.Add(1)
	if s.draining.Load() {
		// Lost the race with Drain: undo and refuse.
		s.exit()
		return false
	}
	return true
}

// exit retires one request, closing the drain gate when the last
// in-flight request ends after draining began.
func (s *Service) exit() {
	if s.inflight.Add(-1) == 0 && s.draining.Load() {
		if s.closing.CompareAndSwap(false, true) {
			close(s.drained)
		}
	}
}

// DrainReport summarises a graceful shutdown.
type DrainReport struct {
	// InFlightAtStart is how many requests were live when the drain
	// began.
	InFlightAtStart int64 `json:"in_flight_at_start"`
	// Finished counts in-flight requests that completed normally
	// (success or their own typed error) during the drain.
	Finished int64 `json:"finished"`
	// Shed counts in-flight requests cancelled by the drain deadline.
	Shed int64 `json:"shed"`
	// Waited is how long the drain took.
	Waited time.Duration `json:"waited_ns"`
}

// Drain gracefully stops the service: new requests are refused with a
// typed 503, in-flight requests run to completion, and if ctx expires
// first the base context is cancelled so the stragglers are shed at
// their next stage boundary. Drain returns once the last in-flight
// request has ended; it is idempotent (later calls wait on the same
// gate).
func (s *Service) Drain(ctx context.Context) DrainReport {
	start := time.Now()
	inflightAtStart := s.inflight.Load()
	if s.draining.CompareAndSwap(false, true) {
		if s.inflight.Load() == 0 && s.closing.CompareAndSwap(false, true) {
			close(s.drained)
		}
		s.o.Event("service.drain", fmt.Sprintf("drain started with %d in flight", inflightAtStart), -1, inflightAtStart)
	}
	select {
	case <-s.drained:
	case <-ctx.Done():
		// Drain deadline: shed whatever is left. Every request context
		// is a child of baseCtx, so pipelines die at their next stage
		// boundary and handlers return typed errors promptly.
		s.shedding.Store(true)
		s.cancelBase()
		<-s.drained
	}
	rep := DrainReport{
		InFlightAtStart: inflightAtStart,
		Finished:        s.mDrainFin.Value(),
		Shed:            s.mDrainShed.Value(),
		Waited:          time.Since(start),
	}
	s.o.Event("service.drain", fmt.Sprintf("drain complete: %d finished, %d shed", rep.Finished, rep.Shed), -1, 0)
	return rep
}

// FinalSnapshot refreshes the runtime gauges one last time and
// freezes the registry — the obs snapshot a drained daemon flushes.
func (s *Service) FinalSnapshot() *obs.Snapshot {
	obs.CollectRuntime(s.reg)
	return s.reg.Snapshot()
}

// requestCtx derives one request's context: a child of baseCtx (so a
// drain deadline sheds it) bounded by the class deadline, tightened
// further when the client asked for less via X-Deadline-Ms.
func (s *Service) requestCtx(classDeadline, clientWants time.Duration) (context.Context, context.CancelFunc) {
	d := classDeadline
	if clientWants > 0 && clientWants < d {
		d = clientWants
	}
	return context.WithTimeout(s.baseCtx, d)
}

// workResult carries a bounded work call's outcome.
type workResult struct {
	v   any
	err error
}

// runWork executes fn on its own goroutine and waits for it or for
// the context, whichever ends first. The pipeline stages fn calls are
// context-aware where possible (phase.Analyze), but simulator
// runs are not interruptible mid-run — runWork is what guarantees the
// *request* still honours its deadline: the HTTP response returns
// typed and on time, the orphaned computation finishes in the
// background and is counted under service.abandoned_workers. A panic inside fn fails
// the request, never the server.
func (s *Service) runWork(ctx context.Context, op string, fn func() (any, error)) (any, error) {
	ch := make(chan workResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				s.mPanics.Inc()
				s.o.Event("service.panic", fmt.Sprintf("%s: panic: %v", op, r), -1, 0)
				ch <- workResult{err: errPanic()}
			}
		}()
		v, err := fn()
		ch <- workResult{v: v, err: err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		s.mAbandoned.Inc()
		s.o.Event("service.abandoned", op+": worker abandoned (deadline or drain)", -1, 0)
		return nil, ctx.Err()
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
