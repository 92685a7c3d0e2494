// Package pas2p is a Go implementation of PAS2P — Parallel Application
// Signature for Performance Prediction (Wong, Rexachs, Luque; CLUSTER
// 2009 and IEEE TPDS 2014). It characterises a message-passing
// application by tracing its communication events on a base machine,
// builds a machine-independent logical model, extracts the recurring
// phases that dominate execution, packages them (with coordinated
// checkpoints) into a signature, and predicts the application's
// execution time on other machines by running just that signature:
//
//	PET = Σ PhaseETᵢ · Wᵢ            (the paper's Equation 1)
//
// Applications are written against the message-passing API in
// pas2p.Comm (MPI-like point-to-point and collective operations) and
// run on a deterministic discrete-event runtime parameterised by
// cluster models (CPU rates, memory contention, Gigabit Ethernet or
// InfiniBand interconnects, process mappings), so one host can play
// the role of every cluster in the paper's evaluation.
//
// Typical use:
//
//	app, _ := pas2p.MakeApp("cg", 64, "classC")
//	base, _ := pas2p.NewDeployment(pas2p.ClusterA(), 64, pas2p.MapBlock)
//	target, _ := pas2p.NewDeployment(pas2p.ClusterB(), 64, pas2p.MapBlock)
//	out, _ := pas2p.Predict(pas2p.Experiment{App: app, Base: base, Target: target})
//	fmt.Printf("PET %v, real AET %v, error %.2f%%\n", out.PET, out.AETTarget, out.PETEPercent)
package pas2p

import (
	"context"
	"io"

	"pas2p/internal/apps"
	"pas2p/internal/checkpoint"
	"pas2p/internal/faults"
	"pas2p/internal/logical"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/obs"
	"pas2p/internal/phase"
	"pas2p/internal/predict"
	"pas2p/internal/scheduler"
	"pas2p/internal/signature"
	"pas2p/internal/sim"
	"pas2p/internal/trace"
	"pas2p/internal/vtime"
	"pas2p/internal/workload"
)

// Core application types.
type (
	// App is a parallel program: Body runs once per rank against the
	// Comm message-passing API.
	App = mpi.App
	// Comm is a rank's communicator handle (Send/Recv/collectives,
	// Compute declarations, Split).
	Comm = mpi.Comm
	// Request identifies an outstanding nonblocking operation.
	Request = mpi.Request
	// RunConfig configures one execution: its deployment, whether to
	// trace it, the per-event instrumentation cost, interceptors,
	// telemetry and fault injection.
	RunConfig = mpi.RunConfig
)

// RunResult reports one execution of RunApp.
type RunResult struct {
	// Elapsed is the run's virtual makespan (the AET when
	// uninstrumented, the AETPAS2P when traced).
	Elapsed VDuration
	// Trace is the run's event trace, grouped by process (nil unless
	// RunConfig.Trace).
	Trace *Trace
	// Stats are the simulator's traffic counters.
	Stats sim.Result
}

// Reduction operators for Reduce/Allreduce.
const (
	Sum  = mpi.Sum
	Prod = mpi.Prod
	Max  = mpi.Max
	Min  = mpi.Min
)

// Wildcards for Recv/Irecv.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
)

// Machine modelling.
type (
	// Cluster models a target machine (Table 2 of the paper).
	Cluster = machine.Cluster
	// Deployment binds ranks to a cluster under a mapping policy.
	Deployment = machine.Deployment
	// MappingPolicy selects block or cyclic rank placement.
	MappingPolicy = machine.MappingPolicy
	// Topology makes inter-node paths distance-dependent (fat tree or
	// torus); Cluster.Topology's zero value is a flat fabric.
	Topology = machine.Topology
	// TopologyKind selects the distance model.
	TopologyKind = machine.TopologyKind
)

// Topology kinds.
const (
	TopoFlat    = machine.TopoFlat
	TopoFatTree = machine.TopoFatTree
	TopoTorus2D = machine.TopoTorus2D
)

// Mapping policies.
const (
	MapBlock  = machine.MapBlock
	MapCyclic = machine.MapCyclic
)

// Preset clusters reproducing the paper's Table 2.
var (
	ClusterA = machine.ClusterA
	ClusterB = machine.ClusterB
	ClusterC = machine.ClusterC
	ClusterD = machine.ClusterD
)

// ClusterByName resolves "A".."D" or "Cluster A".."Cluster D".
func ClusterByName(name string) *Cluster { return machine.ByName(name) }

// NewDeployment lays ranks out on a cluster.
func NewDeployment(c *Cluster, ranks int, policy MappingPolicy) (*Deployment, error) {
	return machine.NewDeployment(c, ranks, policy)
}

// RunApp executes an application on a deployment (optionally tracing,
// in which case it assembles the run's recording into one Trace).
func RunApp(app App, cfg RunConfig) (*RunResult, error) {
	res, err := mpi.Run(app, cfg)
	if err != nil {
		return nil, err
	}
	out := &RunResult{Elapsed: res.Elapsed, Stats: res.Stats}
	if res.Recording != nil {
		out.Trace = res.Recording.Trace()
	}
	return out, nil
}

// Workload registry: the paper's applications (NPB CG/BT/SP/LU/FT,
// Sweep3D, SMG2000, POP, Moldy, a GROMACS-like MD, and the §6
// master/worker case).

// MakeApp instantiates a registered application.
func MakeApp(name string, procs int, workload string) (App, error) {
	return apps.Make(name, procs, workload)
}

// AppNames lists the registered applications.
func AppNames() []string { return apps.Names() }

// AppSpec exposes a registered application's metadata.
func AppSpec(name string) *apps.Spec { return apps.Lookup(name) }

// Analysis pipeline types.
type (
	// Trace is the §3.1 event log of one instrumented run.
	Trace = trace.Trace
	// Logical is the §3.2 machine-independent application model.
	Logical = logical.Logical
	// PhaseConfig holds the §3.3 similarity/relevance thresholds.
	PhaseConfig = phase.Config
	// PhaseAnalysis is the extracted phase set.
	PhaseAnalysis = phase.Analysis
	// PhaseTable is the Fig. 7 table a signature is built from.
	PhaseTable = phase.Table
	// Signature is the §3.4 parallel application signature.
	Signature = signature.Signature
	// SignatureOptions tunes checkpointing and warm-up.
	SignatureOptions = signature.Options
	// ExecResult is a signature execution: SET, PET, per-phase times.
	ExecResult = signature.ExecResult
	// ErrISAMismatch is returned when executing a signature on a
	// different instruction set (§7); rebuild on the target instead.
	ErrISAMismatch = signature.ErrISAMismatch
	// CheckpointModel prices the simulated DMTCP substrate.
	CheckpointModel = checkpoint.CostModel
	// Experiment and Outcome drive the Fig. 12 validation loop.
	Experiment = predict.Experiment
	Outcome    = predict.Outcome
	// PartialExec is the related-work baseline predictor [17].
	PartialExec = predict.PartialExec
)

// Trace I/O. The binary tracefile is a run of fixed-size checksummed
// record blocks: encode serialises them one after another, decode
// CRC-verifies and deserialises them on GOMAXPROCS workers with the
// same result at every worker count, and the block reader opens a
// tracefile for AnalyzeStream without decoding it.
type (
	// TraceMeta is a tracefile's header (app, procs, event count, AET).
	TraceMeta = trace.Meta
	// TraceCodecOptions carries the block engine's optional metrics
	// registry; the zero value records no metrics.
	TraceCodecOptions = trace.CodecOptions
)

// EncodeTrace writes the checksummed binary tracefile format.
func EncodeTrace(w io.Writer, t *Trace, opts TraceCodecOptions) error {
	return trace.EncodeWith(w, t, opts)
}

// DecodeTrace reads a binary tracefile, verifying every checksum.
// Files in a retired layout are rejected, never decoded.
func DecodeTrace(r io.Reader, opts TraceCodecOptions) (*Trace, error) {
	return trace.DecodeWith(r, opts)
}

// TraceBlockReader holds a binary tracefile's verified header (Meta)
// and hands out its per-rank streams (RankStreams), which is what
// AnalyzeStream reads.
type TraceBlockReader struct{ *trace.BlockReader }

// NewTraceBlockReader reads and verifies a binary tracefile's header.
func NewTraceBlockReader(r io.Reader) (*TraceBlockReader, error) {
	br, err := trace.NewBlockReader(r)
	if err != nil {
		return nil, err
	}
	return &TraceBlockReader{br}, nil
}

// Close always returns nil: the reader holds no buffers and does not
// own its source, which the caller closes.
func (*TraceBlockReader) Close() error { return nil }

// DefaultPhaseConfig returns the paper's thresholds (80% event
// similarity, 85% compute similarity, 1% relevance).
func DefaultPhaseConfig() PhaseConfig { return phase.DefaultConfig() }

// DefaultSignatureOptions returns the paper-flavoured checkpointing
// setup (DMTCP-like costs, warm-up before measurement).
func DefaultSignatureOptions() SignatureOptions { return signature.DefaultOptions() }

// OrderLogical builds the machine-independent application model using
// the PAS2P ordering (§3.2): receives pinned to LT(send)+1 and
// collectives aligned on one tick.
func OrderLogical(tr *Trace) (*Logical, error) { return logical.Order(tr) }

// OrderLamport builds the model with the classic Lamport ordering over
// physical occurrence order — the machine-dependent baseline whose
// receive nondeterminism the PAS2P ordering removes.
func OrderLamport(tr *Trace) (*Logical, error) { return logical.OrderLamport(tr) }

// ExtractPhases runs §3.3's pattern identification on a logical trace.
func ExtractPhases(l *Logical, cfg PhaseConfig) (*PhaseAnalysis, error) {
	return phase.Extract(l, cfg)
}

// Analyze performs PAS2P stage A on a decoded trace (phase.Analyze
// over its per-process streams): logical ordering, phase extraction
// and phase-table construction. warmOccurrence selects which
// occurrence of each phase the signature will checkpoint (1 = the
// second, leaving one occurrence to warm up).
//
// The logical order streams straight into phase extraction, so the
// returned analysis's Logical is nil and its BuildTable returns an
// error; use the returned table, and call OrderLogical for a Logical.
func Analyze(tr *Trace, cfg PhaseConfig, warmOccurrence int) (*PhaseAnalysis, *PhaseTable, error) {
	return AnalyzeCtx(context.Background(), tr, cfg, warmOccurrence)
}

// AnalyzeCtx is Analyze with cancellation: the context is checked
// before the analysis starts and throughout its tick loop, so a served
// request whose deadline expires — or a draining server shedding
// in-flight work — abandons the pipeline at the next check instead of
// completing a result nobody will read.
// A cancelled analysis returns ctx.Err() and nil outputs; it never
// returns a partial analysis.
func AnalyzeCtx(ctx context.Context, tr *Trace, cfg PhaseConfig, warmOccurrence int) (*PhaseAnalysis, *PhaseTable, error) {
	res, err := phase.Analyze(ctx, logical.SourceFromTrace(tr), phase.StreamConfig{Config: cfg}, warmOccurrence, nil)
	if err != nil {
		return nil, nil, err
	}
	return res.Analysis, res.Table, nil
}

// Out-of-core analysis. AnalyzeStream is stage A over a tracefile that
// never fits in memory: per-rank streams off the v2 format feed a
// bounded k-way merge that emits the logical order tick by tick, phase
// extraction ingests ticks as they arrive, and representative phase
// matrices spill to CRC-checked files under a memory budget. The
// resulting phase set, occurrence lists and phase table are
// bit-identical to Analyze on the decoded trace.
type (
	// StreamAnalysis is an out-of-core analysis result: the phase
	// analysis (with Logical nil — the trace was never materialised),
	// the phase table, and spill statistics. Call Close when done to
	// delete the spill files; MaterializeCells loads every phase's
	// behaviour matrix back in-core if needed.
	StreamAnalysis = phase.StreamResult
	// StreamStats reports what the out-of-core machinery did.
	StreamStats = phase.StreamStats
)

// AnalyzeStreamOptions tunes the out-of-core pipeline's memory policy.
type AnalyzeStreamOptions struct {
	// MemBudgetBytes caps the resident bytes of representative phase
	// matrices; beyond it cold matrices spill to SpillDir and reload on
	// demand. 0 keeps everything in memory.
	MemBudgetBytes int64
	// SpillDir hosts the spill files and is created if missing; empty
	// means a fresh temporary directory, which the result's Close
	// removes.
	SpillDir string
}

// AnalyzeStream runs stage A over an open tracefile without decoding
// it into memory (phase.Analyze over the reader's rank streams): the
// reader's source must be random-access (a file or byte slice) and in
// the v2 format. Memory stays O(window + budget) regardless of trace
// length. The context is checked throughout the tick loop; a cancelled
// analysis returns ctx.Err().
func AnalyzeStream(ctx context.Context, r *TraceBlockReader, cfg PhaseConfig, warmOccurrence int, opts AnalyzeStreamOptions) (*StreamAnalysis, error) {
	rs, err := r.RankStreams()
	if err != nil {
		return nil, err
	}
	return phase.Analyze(ctx, rs, phase.StreamConfig{
		Config: cfg, MemBudgetBytes: opts.MemBudgetBytes, SpillDir: opts.SpillDir}, warmOccurrence, nil)
}

// BuildSignature constructs the signature on the base machine,
// returning it with its construction time (SCT).
func BuildSignature(app App, tb *PhaseTable, base *Deployment, opts SignatureOptions) (*Signature, vtime.Duration, error) {
	br, err := signature.Build(app, tb, base, opts)
	if err != nil {
		return nil, 0, err
	}
	return br.Signature, br.SCT, nil
}

// Predict runs the complete Fig. 12 experimental loop.
func Predict(e Experiment) (*Outcome, error) { return predict.Run(e) }

// Observability. An Observer threads through the pipeline configs
// (PhaseConfig.Observer, SignatureOptions.Observer, RunConfig.Observer,
// Experiment.Observer); nil — the default everywhere — keeps every
// stage on its uninstrumented fast path.
type (
	// Observer bundles a metrics registry and an optional trace-event
	// timeline.
	Observer = obs.Observer
	// MetricsRegistry holds named counters/gauges/histograms and
	// completed stage spans.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a frozen registry state, writable as JSON or
	// Prometheus text.
	MetricsSnapshot = obs.Snapshot
	// TraceTimeline accumulates Chrome trace-event (Perfetto) entries.
	TraceTimeline = obs.Timeline
)

// NewObserver returns a metrics-only observer.
func NewObserver() *Observer { return obs.New() }

// NewObserverWithTimeline returns an observer that also records a
// trace-event timeline.
func NewObserverWithTimeline() *Observer { return obs.NewWithTimeline() }

// Fault injection. A FaultInjector threads through the pipeline like
// an Observer (RunConfig.Faults, SignatureOptions.Faults,
// Experiment.Faults); nil — the default everywhere — keeps every stage
// on its bit-identical fault-free path. All fault decisions are pure
// functions of the seed and each event's identity, so a fixed seed
// reproduces the identical fault schedule, recovery trace, and
// prediction.
type (
	// FaultConfig selects fault classes (message loss/duplication/
	// delay, restart crashes, clock jitter/skew) and intensities.
	FaultConfig = faults.Config
	// FaultInjector makes the deterministic fault decisions and counts
	// injected/recovered faults.
	FaultInjector = faults.Injector
	// FaultReport is a snapshot of the injector's fault accounting.
	FaultReport = faults.Report
)

// NewFaultInjector builds an injector; operational knobs left zero
// (RTO, retry bounds, backoff) get defaults.
func NewFaultInjector(cfg FaultConfig) (*FaultInjector, error) { return faults.New(cfg) }

// ParseFaultSpec builds an injector from the CLI fault grammar, e.g.
// "loss=0.05,dup=0.01,crash=0.2,jitter=0.01,skew=5ms".
func ParseFaultSpec(seed int64, spec string) (*FaultInjector, error) {
	return faults.ParseSpec(seed, spec)
}

// Workload-effect extension ([2]): fit per-phase scaling laws over
// analyses at several workload sizes and extrapolate unseen sizes.
type (
	// WorkloadPoint is one analysed workload size.
	WorkloadPoint = workload.Point
	// WorkloadModel extrapolates PET across workload sizes.
	WorkloadModel = workload.Model
)

// FitWorkloadModel fits per-phase power laws over two or more analysed
// workload points.
func FitWorkloadModel(points []WorkloadPoint) (*WorkloadModel, error) {
	return workload.Fit(points)
}

// Scheduler substrate (§1's motivating use case): plan a batch queue
// with signature-grade runtime estimates.
type (
	// SchedJob is one queued batch job.
	SchedJob = scheduler.Job
	// SchedResult summarises a simulated schedule.
	SchedResult = scheduler.Result
	// BackfillPolicy orders backfill candidates.
	BackfillPolicy = scheduler.BackfillPolicy
)

// Backfill policies.
const (
	BackfillFCFS     = scheduler.BackfillFCFS
	BackfillShortest = scheduler.BackfillShortest
)

// ScheduleJobs runs EASY backfilling over a homogeneous core pool.
func ScheduleJobs(jobs []SchedJob, cores int, policy BackfillPolicy) (*SchedResult, error) {
	return scheduler.Schedule(jobs, cores, policy)
}

// Duration/time re-exports so callers can interpret results.
type (
	// VDuration is a span of virtual time (nanoseconds).
	VDuration = vtime.Duration
	// VTime is an instant of virtual time.
	VTime = vtime.Time
)

// Seconds converts a virtual duration to float64 seconds.
func Seconds(d VDuration) float64 { return d.Seconds() }
