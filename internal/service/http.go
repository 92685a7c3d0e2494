package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
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

	"pas2p"
	"pas2p/internal/apps"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/obs"
	"pas2p/internal/obs/obshttp"
	"pas2p/internal/phase"
	"pas2p/internal/signature"
	"pas2p/internal/sigrepo"
	"pas2p/internal/trace"
)

// DeadlineHeader lets a client tighten (never widen) its request
// deadline, in whole milliseconds.
const DeadlineHeader = "X-Deadline-Ms"

// CacheHeader reports how an analyze request was satisfied: "hit"
// (LRU), "dedup" (shared a concurrent identical submission), "miss"
// (computed fresh), or "bypass" (non-v2 upload — no whole-file CRC to
// key on).
const CacheHeader = "X-Cache"

// AnalyzeModeHeader reports which pipeline served an analyze request:
// "in-core" (the whole trace decoded into memory) or "stream" (the
// out-of-core bounded-memory pipeline over a disk spool).
const AnalyzeModeHeader = "X-Analyze-Mode"

// Wire types. The loadgen imports these, so requests and responses
// stay structurally in sync between client and server.

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
	// (trace.FileCRC; zero for non-v2 uploads). It identifies the
	// file's block layout, not its content.
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

// payloadSHA256 recomputes the persisted payload checksum of a loaded
// signature — the same bytes signature.Save hashes into its envelope,
// so a client can compare answers against the stored artefact.
func payloadSHA256(sv *signature.Saved) (string, error) {
	b, err := json.Marshal(sv)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// deployFor resolves a named cluster, optionally restricted to a core
// count (whole nodes, as the paper's §5 scaling experiments do), and
// lays ranks out block-wise — the same resolution the CLI uses.
func deployFor(name string, cores, ranks int) (*machine.Deployment, error) {
	cl := machine.ByName(name)
	if cl == nil {
		return nil, fmt.Errorf("unknown cluster %q", name)
	}
	if cores > 0 {
		nodes := (cores + cl.CoresPerNode - 1) / cl.CoresPerNode
		if nodes < 1 {
			nodes = 1
		}
		cl.Nodes = nodes
	}
	return machine.NewDeployment(cl, ranks, machine.MapBlock)
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
		// Compressed or JSON tracefile (or bytes no decoder accepts):
		// analysed fresh, outside the cache; a rejected upload is a
		// typed corrupt_trace.
		resp, aerr := s.analyzeWork(ctx, data, 0, warm)
		if aerr != nil {
			return nil, aerr
		}
		return &handlerResult{v: resp, header: analyzeHeaders("bypass", "in-core")}, nil
	}

	k := cacheKey{sum: sha256.Sum256(data), warm: warm}
	if v, ok := s.cache.get(k); ok {
		s.mCacheHit.Inc()
		return &handlerResult{v: v, header: analyzeHeaders("hit", "in-core")}, nil
	}
	s.mCacheMiss.Inc()
	v, err, leader := s.group.do(ctx, k, func() (*AnalyzeResponse, error) {
		resp, aerr := s.analyzeWork(ctx, data, crc, warm)
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
	return &handlerResult{v: v, header: analyzeHeaders(how, "in-core")}, nil
}

func analyzeHeaders(cache, mode string) map[string]string {
	return map[string]string{CacheHeader: cache, AnalyzeModeHeader: mode}
}

// handleAnalyzeStream serves a large analyze upload out-of-core: the
// body is spooled to a scratch file (never held on the heap) and
// hashed on the way, its digest keys the same LRU/single-flight as the
// in-core path, and the bounded-memory AnalyzeStream pipeline produces
// the answer — bit-identical to the in-core one, so cache entries are
// interchangeable between lanes. A spooled upload that turns out not
// to be v2 falls back in-core when it fits under MaxBodyBytes, else it is refused:
// only the checksummed block format supports random access.
func (s *Service) handleAnalyzeStream(ctx context.Context, r *http.Request, warm int) (*handlerResult, *APIError) {
	spool, err := os.CreateTemp("", "pas2p-upload-*.pas2p")
	if err != nil {
		return nil, errInternal(err)
	}
	defer func() {
		spool.Close()
		os.Remove(spool.Name())
	}()
	digest := sha256.New()
	size, err := io.Copy(io.MultiWriter(spool, digest), r.Body)
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
		if size > s.cfg.MaxBodyBytes {
			return nil, errBodyTooLarge(s.cfg.MaxBodyBytes)
		}
		data := make([]byte, size)
		if _, err := spool.ReadAt(data, 0); err != nil {
			return nil, errInternal(err)
		}
		resp, aerr := s.analyzeWork(ctx, data, 0, warm)
		if aerr != nil {
			return nil, aerr
		}
		return &handlerResult{v: resp, header: analyzeHeaders("bypass", "in-core")}, nil
	}

	k := cacheKey{warm: warm}
	digest.Sum(k.sum[:0])
	if v, ok := s.cache.get(k); ok {
		s.mCacheHit.Inc()
		return &handlerResult{v: v, header: analyzeHeaders("hit", "stream")}, nil
	}
	s.mCacheMiss.Inc()
	v, err, leader := s.group.do(ctx, k, func() (*AnalyzeResponse, error) {
		resp, aerr := s.analyzeStreamWork(ctx, spool, crc, warm)
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
	return &handlerResult{v: v, header: analyzeHeaders(how, "stream")}, nil
}

// analyzeStreamWork runs the bounded-memory pipeline over a spooled
// upload under the request context (stage-boundary cancellation inside
// AnalyzeStream, worker abandonment via runWork).
func (s *Service) analyzeStreamWork(ctx context.Context, spool *os.File, crc uint32, warm int) (*AnalyzeResponse, *APIError) {
	v, err := s.runWork(ctx, "analyze", func() (any, error) {
		br, err := trace.NewBlockReader(io.NewSectionReader(spool, 0, 1<<62))
		if err != nil {
			return nil, errCorruptTrace(err)
		}
		defer br.Close()
		spill, err := os.MkdirTemp("", "pas2p-spill-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(spill)
		res, err := pas2p.AnalyzeStream(ctx, br, phase.DefaultConfig(), warm, pas2p.AnalyzeStreamOptions{
			MemBudgetBytes: s.cfg.StreamMemBudget,
			SpillDir:       spill,
		})
		if err != nil {
			// Corruption discovered mid-stream (a block CRC deep in the
			// spool) surfaces here rather than at decode time; map it to
			// the same typed rejection the in-core decoder produces.
			if strings.HasPrefix(err.Error(), "trace:") {
				return nil, errCorruptTrace(err)
			}
			return nil, err
		}
		defer res.Close()
		meta := br.Meta()
		tb := res.Table
		rel := tb.RelevantRows()
		resp := &AnalyzeResponse{
			App:            meta.AppName,
			Procs:          meta.Procs,
			Events:         int(meta.Events),
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
		return resp, nil
	})
	if err != nil {
		return nil, asAPIError(err, "analyze")
	}
	return v.(*AnalyzeResponse), nil
}

// analyzeWork decodes and analyses one uploaded tracefile under the
// request context (stage-boundary cancellation via AnalyzeCtx, worker
// abandonment via runWork).
func (s *Service) analyzeWork(ctx context.Context, data []byte, crc uint32, warm int) (*AnalyzeResponse, *APIError) {
	v, err := s.runWork(ctx, "analyze", func() (any, error) {
		tr, err := trace.DecodeAnyWith(bytes.NewReader(data), trace.CodecOptions{Workers: s.cfg.AnalyzeWorkers})
		if err != nil {
			return nil, errCorruptTrace(err)
		}
		_, tb, err := pas2p.AnalyzeCtx(ctx, tr, phase.DefaultConfig(), warm)
		if err != nil {
			return nil, err
		}
		rel := tb.RelevantRows()
		resp := &AnalyzeResponse{
			App:            tr.AppName,
			Procs:          tr.Procs,
			Events:         len(tr.Events),
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
		return resp, nil
	})
	if err != nil {
		return nil, asAPIError(err, "analyze")
	}
	return v.(*AnalyzeResponse), nil
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
	bd, err := deployFor(req.Base, 0, req.Procs)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	v, err := s.runWork(ctx, "sign", func() (any, error) {
		// Chaos mode: the configured injector rides the traced run, so
		// message faults fire inside served pipelines.
		traced, err := mpi.Run(a, mpi.RunConfig{Deployment: bd, Trace: true, Faults: s.cfg.Faults})
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		_, tb, err := phase.AnalyzeTrace(ctx, traced.Trace, phase.DefaultConfig(), 1)
		if err != nil {
			return nil, err
		}
		opts := signature.DefaultOptions()
		opts.AllPhases = req.AllPhases
		br, err := signature.Build(a, tb, bd, opts)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
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
		sha, err := payloadSHA256(e.Saved)
		if err != nil {
			return nil, err
		}
		return &SignResponse{
			App:           req.App,
			Procs:         req.Procs,
			Workload:      req.Workload,
			BaseCluster:   bd.Cluster.Name,
			TotalPhases:   tb.TotalPhases,
			Relevant:      len(tb.RelevantRows()),
			Checkpoints:   br.Checkpoints,
			SCTNS:         int64(br.SCT),
			Path:          e.Path,
			PayloadSHA256: sha,
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
	sha, err := payloadSHA256(e.Saved)
	if err != nil {
		return nil, errInternal(err)
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
		PayloadSHA256: sha,
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
	td, err := deployFor(req.Target, req.Cores, req.Procs)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	e, err := s.repo.Lookup(req.App, req.Procs, req.Workload)
	if err != nil {
		return nil, repoAPIError(err, "predict")
	}
	sha, err := payloadSHA256(e.Saved)
	if err != nil {
		return nil, errInternal(err)
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
		PayloadSHA256: sha,
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
