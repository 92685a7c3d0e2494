package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"pas2p/internal/apps"
	"pas2p/internal/logical"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/obs"
	"pas2p/internal/obs/obshttp"
	"pas2p/internal/phase"
	"pas2p/internal/predict"
	"pas2p/internal/signature"
	"pas2p/internal/sigrepo"
	"pas2p/internal/trace"
)

// DeadlineHeader lets a client tighten (never widen) its request
// deadline, in whole milliseconds.
const DeadlineHeader = "X-Deadline-Ms"

// CacheHeader reports how an analyze request was satisfied: "hit"
// (LRU), "dedup" (shared a concurrent identical submission) or "miss"
// (computed fresh).
const CacheHeader = "X-Cache"

// AnalyzeModeHeader reports which pipeline served an analyze request:
// "in-core" (the whole trace decoded into memory) or "stream" (the
// out-of-core bounded-memory pipeline over a disk spool).
const AnalyzeModeHeader = "X-Analyze-Mode"

// Wire types. perfbench's serve workload imports these, so requests
// and responses stay structurally in sync between client and server.

// PhaseSummary is one relevant phase-table row in an analyze answer.
type PhaseSummary struct {
	PhaseID   int   `json:"phase_id"`
	Weight    int   `json:"weight"`
	PhaseETNS int64 `json:"phase_et_ns"`
}

// AnalyzeResponse answers POST /v1/analyze (body: tracefile bytes).
type AnalyzeResponse struct {
	App    string `json:"app"`
	Procs  int    `json:"procs"`
	Events int    `json:"events"`
	// TraceCRC32C echoes the uploaded tracefile's trailer CRC-32C
	// (trace.FileCRC). It identifies the file's block layout, not its
	// content.
	TraceCRC32C uint32 `json:"trace_crc32c"`
	Warm        int    `json:"warm_occurrence"`
	BaseAETNS   int64  `json:"base_aet_ns"`
	TotalPhases int    `json:"total_phases"`
	Relevant    int    `json:"relevant_phases"`
	// PredictedAETNS is Eq. 1 applied to the table's own base times
	// over relevant rows — the self-check a client can eyeball against
	// BaseAETNS.
	PredictedAETNS int64          `json:"predicted_aet_ns"`
	Phases         []PhaseSummary `json:"phases"`
}

// SignRequest asks the server to trace, analyse, build and store a
// signature for a registered application.
type SignRequest struct {
	App       string `json:"app"`
	Procs     int    `json:"procs,omitempty"`    // default 64
	Workload  string `json:"workload,omitempty"` // default: app's default workload
	Base      string `json:"base,omitempty"`     // base cluster name, default "A"
	AllPhases bool   `json:"all_phases,omitempty"`
}

// SignResponse reports the stored signature. PayloadSHA256 comes from
// a verifying re-read of the entry just written — a checksum-valid
// answer even when the repository sits on a faulty filesystem.
type SignResponse struct {
	App           string `json:"app"`
	Procs         int    `json:"procs"`
	Workload      string `json:"workload"`
	BaseCluster   string `json:"base_cluster"`
	TotalPhases   int    `json:"total_phases"`
	Relevant      int    `json:"relevant_phases"`
	Checkpoints   int    `json:"checkpoints"`
	SCTNS         int64  `json:"sct_ns"`
	Path          string `json:"path"`
	PayloadSHA256 string `json:"payload_sha256"`
}

// LookupResponse answers GET /v1/lookup?app=&procs=&workload=.
type LookupResponse struct {
	App           string `json:"app"`
	Procs         int    `json:"procs"`
	Workload      string `json:"workload"`
	BaseISA       string `json:"base_isa"`
	BaseCluster   string `json:"base_cluster"`
	TotalPhases   int    `json:"total_phases"`
	Relevant      int    `json:"relevant_phases"`
	Path          string `json:"path"`
	PayloadSHA256 string `json:"payload_sha256"`
}

// PredictRequest executes the stored signature on a target machine.
type PredictRequest struct {
	App      string `json:"app"`
	Procs    int    `json:"procs,omitempty"`
	Workload string `json:"workload,omitempty"`
	Target   string `json:"target,omitempty"` // target cluster name, default "B"
	Cores    int    `json:"cores,omitempty"`  // restrict the target to this many cores
}

// PredictResponse is the prediction: PET via the paper's Eq. 1, SET
// for the cost of obtaining it, and the checksum of the signature
// payload the prediction came from.
type PredictResponse struct {
	App           string `json:"app"`
	Procs         int    `json:"procs"`
	Workload      string `json:"workload"`
	Target        string `json:"target"`
	SETNS         int64  `json:"set_ns"`
	PETNS         int64  `json:"pet_ns"`
	Degraded      bool   `json:"degraded,omitempty"`
	LostPhases    []int  `json:"lost_phases,omitempty"`
	PayloadSHA256 string `json:"payload_sha256"`
}

// Handler assembles the service mux: the five /v1 endpoints wrapped in
// the robustness kit, plus the obshttp telemetry surface (/metrics,
// /flight, /spans, /timeline, /debug/pprof) and a /healthz that
// reports the daemon lifecycle (ready → draining → done). A request
// whose path is not canonical gets a typed 404.
func (s *Service) Handler() (http.Handler, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.wrapLane(s.analyzeLane, "analyze", s.handleAnalyze))
	mux.HandleFunc("/v1/sign", s.wrap(s.heavy, "sign", s.handleSign))
	mux.HandleFunc("/v1/lookup", s.wrap(s.light, "lookup", s.handleLookup))
	mux.HandleFunc("/v1/predict", s.wrap(s.heavy, "predict", s.handlePredict))
	mux.HandleFunc("/v1/fsck", s.wrap(s.heavy, "fsck", s.handleFsck))
	h, err := obshttp.NewHandlers(s.o)
	if err != nil {
		return nil, err
	}
	h.Health = s.healthState
	h.Mount(mux)
	mux.HandleFunc("/", s.handleIndex)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// ServeMux would answer these with an untyped 301 redirect to
		// the cleaned path.
		if !canonicalPath(r.URL.Path) {
			errNotFound("no such endpoint: %s (path is not canonical)", r.URL.Path).write(w)
			return
		}
		mux.ServeHTTP(w, r)
	}), nil
}

// canonicalPath reports whether p is already in the form ServeMux
// cleans request paths to: rooted, without dot segments or repeated
// slashes, and with at most one trailing slash.
func canonicalPath(p string) bool {
	if !strings.HasPrefix(p, "/") {
		return false
	}
	np := path.Clean(p)
	if strings.HasSuffix(p, "/") && np != "/" {
		np += "/"
	}
	return np == p
}

// healthState reports the daemon lifecycle for /healthz.
func (s *Service) healthState() string {
	if !s.draining.Load() {
		return "ready"
	}
	select {
	case <-s.drained:
		return "done"
	default:
		return "draining"
	}
}

func (s *Service) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		errNotFound("no such endpoint: %s", r.URL.Path).write(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `pas2pd signature service

POST /v1/analyze   analyse an uploaded tracefile (?warm=N)
POST /v1/sign      trace+sign a registered app, store in the repo
GET  /v1/lookup    look a stored signature up (?app=&procs=&workload=)
POST /v1/predict   execute a stored signature on a target machine
POST /v1/fsck      verify the repository, quarantine corrupt entries
/metrics /metrics.json /spans /timeline /flight /healthz /debug/pprof/
`)
}

// handlerResult is a successful handler outcome: the JSON body plus
// any response headers (X-Cache and friends).
type handlerResult struct {
	v      any
	header map[string]string
}

type apiHandler func(ctx context.Context, r *http.Request) (*handlerResult, *APIError)

// wrap is the robustness kit around every endpoint: in-flight
// accounting against the drain gate, the per-request deadline context,
// body capping, admission control with load shedding, panic isolation,
// latency/EWMA accounting, and the no-deadline-blown-200s rule.
func (s *Service) wrap(a *admitter, op string, h apiHandler) http.HandlerFunc {
	return s.wrapLane(func(*http.Request) *admitter { return a }, op, h)
}

// streamEligible reports whether an analyze upload should be served by
// the out-of-core stream lane: a declared Content-Length at or above
// the threshold. Chunked uploads (length -1) stay in-core — without a
// declared size the lane choice would be a guess, and the in-core body
// cap still bounds them.
func (s *Service) streamEligible(r *http.Request) bool {
	return s.cfg.StreamThresholdBytes > 0 && r.ContentLength >= s.cfg.StreamThresholdBytes
}

// analyzeLane routes analyze requests between the heavy (in-core) and
// stream (out-of-core) admission classes by declared body size, so the
// cost model of each lane learns its own service-time distribution.
func (s *Service) analyzeLane(r *http.Request) *admitter {
	if s.streamEligible(r) {
		return s.stream
	}
	return s.heavy
}

// laneParams resolves an admission class's request parameters: default
// deadline, latency histogram, and body cap.
func (s *Service) laneParams(a *admitter) (time.Duration, *obs.Histogram, int64) {
	switch a {
	case s.light:
		return s.cfg.LightDeadline, s.latLight, s.cfg.MaxBodyBytes
	case s.stream:
		return s.cfg.StreamDeadline, s.latStream, s.cfg.StreamBodyBytes
	default:
		return s.cfg.HeavyDeadline, s.latHeavy, s.cfg.MaxBodyBytes
	}
}

// wrapLane is wrap with the admission class picked per request (the
// analyze endpoint straddles two lanes).
func (s *Service) wrapLane(pick func(*http.Request) *admitter, op string, h apiHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		a := pick(r)
		deadline, lat, bodyCap := s.laneParams(a)
		s.mReqs.Inc()
		start := time.Now()
		if !s.enter() {
			s.fail(w, errDraining())
			return
		}
		defer s.exit()

		// Panic isolation: a panicking handler (or test seam) fails its
		// own request with a typed 500; the panic and stack go to the
		// flight recorder; the server keeps serving.
		wrote := false
		defer func() {
			if p := recover(); p != nil {
				s.mPanics.Inc()
				s.o.Event("service.panic", fmt.Sprintf("%s: panic: %v\n%s", op, p, debug.Stack()), -1, 0)
				if !wrote {
					s.fail(w, errPanic())
				}
				s.noteDrainOutcome(false)
			}
		}()

		r.Body = http.MaxBytesReader(w, r.Body, bodyCap)
		clientWants, aerr := clientDeadline(r)
		if aerr != nil {
			wrote = true
			s.fail(w, aerr)
			s.noteDrainOutcome(true)
			return
		}
		ctx, cancel := s.requestCtx(deadline, clientWants)
		defer cancel()
		// A client that disconnects cancels its request so its slot and
		// worker are reclaimed instead of computing for nobody.
		stop := context.AfterFunc(r.Context(), cancel)
		defer stop()

		release, aerr := a.admit(ctx)
		if aerr != nil {
			wrote = true
			s.fail(w, aerr)
			s.noteDrainOutcome(false)
			return
		}
		workStart := time.Now()
		defer func() {
			a.observe(time.Since(workStart))
			release()
		}()

		if s.afterAdmit != nil {
			s.afterAdmit(ctx, op)
		}
		res, apiErr := h(ctx, r)
		if apiErr == nil && ctx.Err() != nil {
			// The work limped in after the deadline (or the drain
			// hammer): a late 200 would teach clients to trust blown
			// deadlines, so the honest answer is the typed timeout.
			apiErr = asAPIError(ctx.Err(), op)
		}
		lat.Observe(time.Since(start).Seconds())
		wrote = true
		if apiErr != nil {
			s.fail(w, apiErr)
			s.noteDrainOutcome(false)
			return
		}
		s.mOK.Inc()
		s.noteDrainOutcome(true)
		for k, v := range res.header {
			w.Header().Set(k, v)
		}
		writeJSON(w, res.v)
	}
}

func (s *Service) fail(w http.ResponseWriter, e *APIError) {
	s.mTypedErrs.Inc()
	e.write(w)
}

// noteDrainOutcome attributes an in-flight request's ending to the
// drain report: once draining, every completion is either "finished"
// (ran to its own conclusion) or "shed" (cut down by the drain
// deadline's base-context cancel).
func (s *Service) noteDrainOutcome(ok bool) {
	if !s.draining.Load() {
		return
	}
	if !ok && s.shedding.Load() {
		s.mDrainShed.Inc()
	} else {
		s.mDrainFin.Inc()
	}
}

// clientDeadline parses X-Deadline-Ms. Absent → 0 (class default).
func clientDeadline(r *http.Request) (time.Duration, *APIError) {
	v := r.Header.Get(DeadlineHeader)
	if v == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return 0, errBadRequest("%s must be a positive integer of milliseconds, got %q", DeadlineHeader, v)
	}
	if maxMS := int64(math.MaxInt64 / time.Millisecond); ms > maxMS {
		return 0, errBadRequest("%s must be at most %d milliseconds, got %q", DeadlineHeader, maxMS, v)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

// decodeJSON strictly decodes a JSON request body: unknown fields and
// trailing garbage are typed 400s, an oversized body a typed 413 —
// never a panic (FuzzServiceRequest holds the decoder to that).
func decodeJSON(r *http.Request, dst any) *APIError {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return errBodyTooLarge(mbe.Limit)
		}
		return errBadRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return errBadRequest("trailing data after JSON body")
	}
	return nil
}

func errMethod(want string) *APIError {
	return &APIError{Status: http.StatusMethodNotAllowed, Code: CodeBadRequest,
		Message: "method not allowed; use " + want}
}

// repoAPIError maps repository failures onto the error taxonomy:
// missing entries are 404s, corrupt entries a retryable 503 (fsck
// quarantines them and a re-add heals), everything else falls through
// to the generic mapping.
func repoAPIError(err error, op string) *APIError {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae
	}
	if errors.Is(err, sigrepo.ErrNotFound) {
		return errNotFound("%v", err)
	}
	if errors.Is(err, sigrepo.ErrCorrupt) {
		return errRepoCorrupt(err, 2*time.Second)
	}
	return asAPIError(err, op)
}

// --- endpoint handlers ---

func (s *Service) handleAnalyze(ctx context.Context, r *http.Request) (*handlerResult, *APIError) {
	if r.Method != http.MethodPost {
		return nil, errMethod(http.MethodPost)
	}
	warm := 1
	if v := r.URL.Query().Get("warm"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return nil, errBadRequest("warm must be a non-negative integer, got %q", v)
		}
		warm = n
	}
	if s.streamEligible(r) {
		return s.handleAnalyzeStream(ctx, r, warm)
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, errBodyTooLarge(mbe.Limit)
		}
		return nil, errBadRequest("reading body: %v", err)
	}
	if len(data) == 0 {
		return nil, errBadRequest("empty body: POST the tracefile bytes")
	}

	crc, isV2 := trace.FileCRC(data)
	if !isV2 {
		return nil, errNotV2(bytes.NewReader(data))
	}

	k := cacheKey{sum: sha256.Sum256(data), warm: warm}
	return s.cachedAnalyze(ctx, k, "in-core", func() (*AnalyzeResponse, *APIError) {
		return s.analyzeWork(ctx, crc, warm, 0, func() (logical.EventSource, error) {
			tr, err := trace.Decode(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			return logical.SourceFromTrace(tr), nil
		})
	})
}

// errNotV2 rejects an upload that is not one whole v2 tracefile, first
// byte to trailer. The reader's own error names what the upload's
// leading bytes are (a retired layout, or a bad magic); an upload
// whose prefix is sound has bytes missing or past its trailer.
func errNotV2(upload io.Reader) *APIError {
	if _, err := trace.NewBlockReader(upload); err != nil {
		return errCorruptTrace(err)
	}
	return errCorruptTrace(errors.New("trace: upload does not end in a v2 trailer"))
}

// cachedAnalyze answers an analyze upload from the LRU when its key is
// cached; otherwise it runs work once for all concurrent requests with
// the same key (single-flight) and caches the answer. mode names the
// lane for the response header.
func (s *Service) cachedAnalyze(ctx context.Context, k cacheKey, mode string,
	work func() (*AnalyzeResponse, *APIError)) (*handlerResult, *APIError) {
	if v, ok := s.cache.get(k); ok {
		s.mCacheHit.Inc()
		return &handlerResult{v: v, header: analyzeHeaders("hit", mode)}, nil
	}
	s.mCacheMiss.Inc()
	v, err, leader := s.group.do(ctx, k, func() (*AnalyzeResponse, error) {
		resp, aerr := work()
		if aerr != nil {
			return nil, aerr
		}
		s.cache.put(k, resp)
		return resp, nil
	})
	if err != nil {
		return nil, asAPIError(err, "analyze")
	}
	how := "miss"
	if !leader {
		s.mDedup.Inc()
		how = "dedup"
	}
	return &handlerResult{v: v, header: analyzeHeaders(how, mode)}, nil
}

func analyzeHeaders(cache, mode string) map[string]string {
	return map[string]string{CacheHeader: cache, AnalyzeModeHeader: mode}
}

// analyzeResponse summarises a phase table as the analyze endpoint's
// answer: the table's totals and its relevant phases.
func analyzeResponse(app string, procs, events int, crc uint32, warm int, tb *phase.Table) *AnalyzeResponse {
	rel := tb.RelevantRows()
	resp := &AnalyzeResponse{
		App:            app,
		Procs:          procs,
		Events:         events,
		TraceCRC32C:    crc,
		Warm:           warm,
		BaseAETNS:      int64(tb.BaseAET),
		TotalPhases:    tb.TotalPhases,
		Relevant:       len(rel),
		PredictedAETNS: int64(tb.PredictedAET(true)),
		Phases:         make([]PhaseSummary, 0, len(rel)),
	}
	for _, row := range rel {
		resp.Phases = append(resp.Phases, PhaseSummary{
			PhaseID:   row.PhaseID,
			Weight:    row.Weight,
			PhaseETNS: int64(row.PhaseET),
		})
	}
	return resp
}

// handleAnalyzeStream serves a large analyze upload out-of-core: the
// body is spooled to a scratch file (never held on the heap) and
// hashed on the way, its digest keys the same LRU/single-flight as the
// in-core path, and phase.Analyze reads the spool's rank streams in
// place under the stream memory budget — bit-identical to the in-core
// answer, so cache entries are interchangeable between lanes. A
// spooled upload that is not v2 is refused as the in-core lane refuses
// it. A failed body read is the client's 400; a spool the disk cannot
// hold (ENOSPC) is a retryable insufficient_storage, any other spool
// failure internal.
func (s *Service) handleAnalyzeStream(ctx context.Context, r *http.Request, warm int) (*handlerResult, *APIError) {
	createSpool := s.createSpool
	if createSpool == nil {
		createSpool = func() (*os.File, error) { return os.CreateTemp("", "pas2p-upload-*.pas2p") }
	}
	spool, err := createSpool()
	if err != nil {
		return nil, asAPIError(fmt.Errorf("creating upload spool: %w", err), "analyze")
	}
	defer func() {
		spool.Close()
		if s.createSpool == nil {
			os.Remove(spool.Name())
		}
	}()
	digest := sha256.New()
	size, err := io.Copy(io.MultiWriter(spool, digest), r.Body)
	if pe := (*os.PathError)(nil); errors.As(err, &pe) && pe.Path == spool.Name() {
		// The spool's own write failed, not the body's read.
		return nil, asAPIError(fmt.Errorf("spooling upload: %w", err), "analyze")
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, errBodyTooLarge(mbe.Limit)
		}
		return nil, errBadRequest("reading body: %v", err)
	}
	if size == 0 {
		return nil, errBadRequest("empty body: POST the tracefile bytes")
	}

	crc, isV2 := trace.FileCRCAt(spool, size)
	if !isV2 {
		return nil, errNotV2(io.NewSectionReader(spool, 0, size))
	}

	k := cacheKey{warm: warm}
	digest.Sum(k.sum[:0])
	return s.cachedAnalyze(ctx, k, "stream", func() (*AnalyzeResponse, *APIError) {
		return s.analyzeWork(ctx, crc, warm, s.cfg.StreamMemBudget, func() (logical.EventSource, error) {
			br, err := trace.NewBlockReader(io.NewSectionReader(spool, 0, 1<<62))
			if err != nil {
				return nil, err
			}
			return br.RankStreams()
		})
	})
}

// analyzeWork analyses one upload under the request context
// (cancellation inside phase.Analyze's tick loop, worker abandonment
// via runWork). open, run on the worker, gives the upload's event
// source, and its failure rejects the upload as corrupt; budget is the
// lane's phase-matrix memory budget (0 keeps every matrix resident).
func (s *Service) analyzeWork(ctx context.Context, crc uint32, warm int, budget int64,
	open func() (logical.EventSource, error)) (*AnalyzeResponse, *APIError) {
	v, err := s.runWork(ctx, "analyze", func() (any, error) {
		src, err := open()
		if err != nil {
			return nil, errCorruptTrace(err)
		}
		res, err := phase.Analyze(ctx, src, phase.StreamConfig{
			Config: phase.DefaultConfig(), MemBudgetBytes: budget}, warm, nil)
		if err != nil {
			// Corruption discovered mid-stream (a block CRC deep in the
			// spool) surfaces here rather than when the source opens.
			return nil, analyzeError(err)
		}
		defer res.Close()
		meta := src.Meta()
		return analyzeResponse(meta.AppName, meta.Procs, int(meta.Events), crc, warm, res.Table), nil
	})
	if err != nil {
		return nil, asAPIError(err, "analyze")
	}
	return v.(*AnalyzeResponse), nil
}

// analyzeError gives an analysis failure that condemns the uploaded
// trace — damaged bytes, or relations with no logical order — the
// same typed rejection a failed decode gets. Anything else (a spill
// I/O failure, cancellation) passes through to asAPIError.
func analyzeError(err error) error {
	if errors.Is(err, trace.ErrCorrupt) || errors.Is(err, logical.ErrNoOrder) {
		return errCorruptTrace(err)
	}
	return err
}

func (s *Service) handleSign(ctx context.Context, r *http.Request) (*handlerResult, *APIError) {
	if r.Method != http.MethodPost {
		return nil, errMethod(http.MethodPost)
	}
	var req SignRequest
	if aerr := decodeJSON(r, &req); aerr != nil {
		return nil, aerr
	}
	if req.App == "" {
		return nil, errBadRequest("app is required")
	}
	if req.Procs == 0 {
		req.Procs = 64
	}
	if req.Procs < 0 {
		return nil, errBadRequest("procs must be positive, got %d", req.Procs)
	}
	if req.Base == "" {
		req.Base = "A"
	}
	a, err := apps.Make(req.App, req.Procs, req.Workload)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	bd, err := machine.Deploy(req.Base, 0, req.Procs)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	v, err := s.runWork(ctx, "sign", func() (any, error) {
		// Chaos mode: the configured injector rides the traced run, so
		// message faults fire inside served pipelines.
		opts := signature.DefaultOptions()
		opts.AllPhases = req.AllPhases
		signed, err := predict.Sign(ctx, predict.Experiment{
			App: a, Base: bd, EventOverhead: mpi.PAS2PEventOverhead,
			Signature: opts, Faults: s.cfg.Faults,
		})
		if err != nil {
			return nil, err
		}
		tb, br := signed.Table, signed.Build
		if _, err := s.repo.Add(br.Signature, req.Workload, bd.Cluster.Name); err != nil {
			return nil, err
		}
		// Verifying re-read: the response's path and checksum come from
		// the entry as stored, so a torn or bit-flipped write (chaos
		// mode's FaultFS) surfaces here as a typed repo error instead
		// of a confident answer about bytes that do not exist.
		e, err := s.repo.Lookup(req.App, req.Procs, req.Workload)
		if err != nil {
			return nil, err
		}
		return &SignResponse{
			App:           req.App,
			Procs:         req.Procs,
			Workload:      e.Saved.Workload,
			BaseCluster:   bd.Cluster.Name,
			TotalPhases:   tb.TotalPhases,
			Relevant:      len(tb.RelevantRows()),
			Checkpoints:   br.Checkpoints,
			SCTNS:         int64(br.SCT),
			Path:          e.Path,
			PayloadSHA256: e.Saved.PayloadSHA256(),
		}, nil
	})
	if err != nil {
		return nil, repoAPIError(err, "sign")
	}
	return &handlerResult{v: v}, nil
}

func (s *Service) handleLookup(ctx context.Context, r *http.Request) (*handlerResult, *APIError) {
	if r.Method != http.MethodGet {
		return nil, errMethod(http.MethodGet)
	}
	q := r.URL.Query()
	app := q.Get("app")
	if app == "" {
		return nil, errBadRequest("app query parameter is required")
	}
	procs, err := strconv.Atoi(q.Get("procs"))
	if err != nil || procs <= 0 {
		return nil, errBadRequest("procs must be a positive integer, got %q", q.Get("procs"))
	}
	if err := ctx.Err(); err != nil {
		return nil, asAPIError(err, "lookup")
	}
	e, err := s.repo.Lookup(app, procs, q.Get("workload"))
	if err != nil {
		return nil, repoAPIError(err, "lookup")
	}
	return &handlerResult{v: &LookupResponse{
		App:           e.Saved.AppName,
		Procs:         e.Saved.Procs,
		Workload:      e.Saved.Workload,
		BaseISA:       e.Saved.BaseISA,
		BaseCluster:   e.Saved.BaseCluster,
		TotalPhases:   e.Saved.Table.TotalPhases,
		Relevant:      len(e.Saved.Table.RelevantRows()),
		Path:          e.Path,
		PayloadSHA256: e.Saved.PayloadSHA256(),
	}}, nil
}

func (s *Service) handlePredict(ctx context.Context, r *http.Request) (*handlerResult, *APIError) {
	if r.Method != http.MethodPost {
		return nil, errMethod(http.MethodPost)
	}
	var req PredictRequest
	if aerr := decodeJSON(r, &req); aerr != nil {
		return nil, aerr
	}
	if req.App == "" {
		return nil, errBadRequest("app is required")
	}
	if req.Procs == 0 {
		req.Procs = 64
	}
	if req.Procs < 0 {
		return nil, errBadRequest("procs must be positive, got %d", req.Procs)
	}
	if req.Target == "" {
		req.Target = "B"
	}
	td, err := machine.Deploy(req.Target, req.Cores, req.Procs)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	e, err := s.repo.Lookup(req.App, req.Procs, req.Workload)
	if err != nil {
		return nil, repoAPIError(err, "predict")
	}
	v, err := s.runWork(ctx, "predict", func() (any, error) {
		return e.Predict(td, apps.Make)
	})
	if err != nil {
		var mism *signature.ErrISAMismatch
		if errors.As(err, &mism) {
			return nil, &APIError{Status: http.StatusConflict, Code: CodeBadRequest,
				Message: fmt.Sprintf("%v; rebuild the signature on the target", mism)}
		}
		return nil, repoAPIError(err, "predict")
	}
	res := v.(*signature.ExecResult)
	return &handlerResult{v: &PredictResponse{
		App:           e.Saved.AppName,
		Procs:         e.Saved.Procs,
		Workload:      e.Saved.Workload,
		Target:        req.Target,
		SETNS:         int64(res.SET),
		PETNS:         int64(res.PET),
		Degraded:      res.Degraded,
		LostPhases:    res.LostPhases,
		PayloadSHA256: e.Saved.PayloadSHA256(),
	}}, nil
}

func (s *Service) handleFsck(ctx context.Context, r *http.Request) (*handlerResult, *APIError) {
	if r.Method != http.MethodPost {
		return nil, errMethod(http.MethodPost)
	}
	v, err := s.runWork(ctx, "fsck", func() (any, error) {
		return s.repo.Fsck()
	})
	if err != nil {
		return nil, asAPIError(err, "fsck")
	}
	return &handlerResult{v: v.(*sigrepo.FsckReport)}, nil
}
