// Package signature implements PAS2P stage B: constructing the
// parallel application signature (§3.4) and executing it on target
// machines to predict the full application execution time (§4).
//
// A signature is the application's real code plus the phase table and
// a catalogue of coordinated checkpoints taken just before each
// relevant phase's start point. Executing the signature restarts each
// checkpoint, lets the machine warm up, measures the phase once, and
// applies Equation (1), PET = Σ PhaseETᵢ·Wᵢ. Because the simulation
// runtime is deterministic, checkpoints are replay positions: between
// phases the application's code still runs (state stays correct) but
// costs no virtual time, exactly the observable timing behaviour of a
// checkpoint restore.
//
// Both runs end where the paper's do: the construction run once the
// last checkpoint is stored, the execution run once the last phase is
// measured or abandoned. Each rank then retires (mpi.Comm.Retire), and
// the simulator stops the run as soon as every rank has; SCT and SET
// are the same as if the rest of the application had been simulated.
package signature

import (
	"fmt"
	"math"
	"sort"

	"pas2p/internal/checkpoint"
	"pas2p/internal/faults"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/obs"
	"pas2p/internal/phase"
	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

// Options tunes signature construction and execution.
type Options struct {
	// WarmupEvents places each checkpoint this many events before the
	// phase's start point, so caches and TLBs warm up before
	// measurement begins (§3.4 / [27]).
	WarmupEvents int64
	// ColdFactor is the compute slowdown right after a restart, decayed
	// across the warm-up region.
	ColdFactor float64
	// Checkpoint prices snapshot/restart operations.
	Checkpoint checkpoint.CostModel
	// StateBytesPerRank is the process footprint the checkpoint cost
	// model sees.
	StateBytesPerRank int64
	// AllPhases builds the signature from every phase instead of only
	// the relevant ones (the paper's discussion: doing so removes the
	// residual prediction error at the cost of a longer signature).
	AllPhases bool
	// Estimator selects how the per-phase execution time is derived
	// from the per-rank measurements (see ETEstimator).
	Estimator ETEstimator
	// Observer, when non-nil, records construction/execution spans,
	// checkpoint counters and — if it carries a timeline — rank tracks
	// with restart/measure annotations during Execute. A pointer keeps
	// Options comparable; the json tag keeps persisted signatures free
	// of runtime state.
	Observer *obs.Observer `json:"-"`
	// Faults, when non-nil, injects deterministic faults into signature
	// execution: message loss/duplication/delay inside each measured
	// phase and rank crashes at checkpoint restarts (bounded retries
	// with exponential backoff; an exhausted retry budget abandons the
	// phase and Execute degrades to the surviving ones). Like Observer,
	// a pointer keeps Options comparable and the json tag keeps
	// persisted signatures free of runtime state.
	Faults *faults.Injector `json:"-"`
}

// ETEstimator selects the phase-time estimator. The ablation
// benchmarks compare them; EstimatorPairDelta is the default.
type ETEstimator int

const (
	// EstimatorPairDelta (the default) uses the delta between two
	// back-to-back occurrences' completion cuts when the phase table
	// provides a pair — the marginal per-repetition cost, immune to
	// pipeline-fill effects — falling back to the last span.
	EstimatorPairDelta ETEstimator = iota
	// EstimatorLastSpan measures from the last rank entering the phase
	// to the last one leaving (the single-occurrence wall span).
	EstimatorLastSpan
	// EstimatorMeanSpan averages each rank's own busy span.
	EstimatorMeanSpan
)

// DefaultOptions mirrors the paper's setup.
func DefaultOptions() Options {
	return Options{
		WarmupEvents:      4,
		ColdFactor:        2.0,
		Checkpoint:        checkpoint.DefaultDMTCP(),
		StateBytesPerRank: 64 << 20,
	}
}

func (o Options) validate() error {
	if o.WarmupEvents < 0 {
		return fmt.Errorf("signature: negative warmup events")
	}
	if math.IsNaN(o.ColdFactor) || math.IsInf(o.ColdFactor, 0) || o.ColdFactor < 1 {
		return fmt.Errorf("signature: cold factor %v must be finite and >= 1", o.ColdFactor)
	}
	if !o.Checkpoint.Valid() {
		return fmt.Errorf("signature: invalid checkpoint cost model")
	}
	if o.StateBytesPerRank < 0 {
		return fmt.Errorf("signature: negative state size")
	}
	return nil
}

// Signature is a constructed parallel application signature.
type Signature struct {
	// App is the application's real code; the signature executes
	// segments of it, never a mock-up.
	App mpi.App
	// Table is the phase table the signature was built from.
	Table *phase.Table
	// Catalog holds the simulated checkpoints.
	Catalog *checkpoint.Catalog
	// BaseISA is the instruction set of the machine the signature's
	// binaries were produced on.
	BaseISA string
	Options Options

	segments []segment
}

// segment is one relevant phase prepared for execution, in trace order.
type segment struct {
	row  phase.TableRow
	ckpt []int64 // per-process checkpoint position (before row start)
}

// BuildResult reports signature construction.
type BuildResult struct {
	Signature *Signature
	// SCT is the signature construction time: re-running the
	// application with checkpointing until the last relevant phase is
	// captured (Table 8's SCT column).
	SCT vtime.Duration
	// Checkpoints is the number of snapshots taken.
	Checkpoints int
}

// Build constructs the signature on the base machine: the application
// is re-run under the libpas2p-equivalent interceptor, coordinated
// checkpoints are taken at each selected phase's checkpoint position,
// and the run is cut short once the last checkpoint is stored: each
// rank retires after its last snapshot, and the simulator ends the run
// once all have.
func Build(app mpi.App, tb *phase.Table, base *machine.Deployment, opts Options) (*BuildResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := tb.Validate(); err != nil {
		return nil, err
	}
	if app.Procs != tb.Procs {
		return nil, fmt.Errorf("signature: app has %d procs, table %d", app.Procs, tb.Procs)
	}
	if base.Ranks != app.Procs {
		return nil, fmt.Errorf("signature: base deployment has %d ranks, app %d", base.Ranks, app.Procs)
	}
	sig, err := assemble(app, tb, base.Cluster.ISA, opts)
	if err != nil {
		return nil, err
	}
	segs := sig.segments

	// Construction run: execute normally, charging a snapshot at each
	// checkpoint position; after the last snapshot the remainder of
	// the run is cut off (the ranks retire), as the signature
	// "terminates the execution because it is not necessary to
	// continue".
	sp := opts.Observer.StartSpan("signature.build")
	snapCost := opts.Checkpoint.SnapshotTime(opts.StateBytesPerRank)
	res, err := mpi.Run(app, mpi.RunConfig{
		Deployment: base,
		// Metrics only: the construction run's per-event tracks would
		// bloat the timeline without aiding prediction analysis.
		Observer: opts.Observer.MetricsOnly(),
		Faults:   opts.Faults,
		NewInterceptor: func(rank int) mpi.Interceptor {
			return newBuilderInterceptor(rank, segs, snapCost)
		},
	})
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("signature: construction run: %w", err)
	}
	sp.SetCounter("checkpoints", int64(len(segs)))
	sp.End()
	if reg := opts.Observer.Reg(); reg != nil {
		reg.Counter("signature.checkpoints").Add(int64(len(segs)))
	}
	return &BuildResult{Signature: sig, SCT: res.Elapsed, Checkpoints: len(segs)}, nil
}

// assemble selects the phases of tb that opts asks for and builds the
// signature's checkpoint catalog from them: one snapshot per segment,
// at its checkpoint position, of opts' state size, on a machine of
// instruction set isa. Build and Reassemble both derive the catalog
// here, so a loaded signature needs none stored.
func assemble(app mpi.App, tb *phase.Table, isa string, opts Options) (*Signature, error) {
	segs := selectSegments(tb, opts)
	if len(segs) == 0 {
		return nil, fmt.Errorf("signature: the table of %s selects no phases", app.Name)
	}
	cat := &checkpoint.Catalog{AppName: app.Name, Procs: tb.Procs, ISA: isa}
	for _, s := range segs {
		cat.Snapshots = append(cat.Snapshots, checkpoint.Snapshot{
			PhaseID:    s.row.PhaseID,
			Position:   s.ckpt,
			StateBytes: opts.StateBytesPerRank,
		})
	}
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	return &Signature{App: app, Table: tb, Catalog: cat, BaseISA: isa, Options: opts, segments: segs}, nil
}

// selectSegments orders the chosen phases by their occurrence position
// and computes per-process checkpoint positions.
func selectSegments(tb *phase.Table, opts Options) []segment {
	rows := tb.Rows
	var segs []segment
	for _, r := range rows {
		if !r.Relevant && !opts.AllPhases {
			continue
		}
		ck := make([]int64, len(r.StartEvents))
		for p := range ck {
			ck[p] = r.StartEvents[p] - opts.WarmupEvents
			if ck[p] < 0 {
				ck[p] = 0
			}
		}
		segs = append(segs, segment{row: r, ckpt: ck})
	}
	sort.Slice(segs, func(i, j int) bool {
		return segs[i].row.StartTick < segs[j].row.StartTick
	})
	// Checkpoint positions must not precede the previous segment's end
	// on any process (segments are disjoint occurrence windows; a
	// paired segment extends through its second occurrence).
	for i := 1; i < len(segs); i++ {
		prev := &segs[i-1].row
		for p := range segs[i].ckpt {
			end := prev.EndEvents[p]
			if prev.HasPair && prev.End2Events[p] > end {
				end = prev.End2Events[p]
			}
			if segs[i].ckpt[p] < end {
				segs[i].ckpt[p] = end
			}
		}
	}
	return segs
}

// builderInterceptor drives the construction run of one rank.
type builderInterceptor struct {
	rank     int
	segs     []segment
	snapCost vtime.Duration
	next     int
}

func newBuilderInterceptor(rank int, segs []segment, snapCost vtime.Duration) *builderInterceptor {
	return &builderInterceptor{rank: rank, segs: segs, snapCost: snapCost}
}

func (b *builderInterceptor) Init(c *mpi.Comm) { b.at(c, 0) }

func (b *builderInterceptor) After(c *mpi.Comm, kind trace.Kind, idx int64) {
	b.at(c, idx+1)
}

// at processes every transition scheduled at the given replay position.
func (b *builderInterceptor) at(c *mpi.Comm, pos int64) {
	for b.next < len(b.segs) && pos == b.segs[b.next].ckpt[b.rank] {
		// Coordinated checkpoint: this process writes its state out.
		c.Elapse(b.snapCost)
		b.next++
		if b.next == len(b.segs) {
			// Last snapshot stored: cut the rest of the run off.
			c.Retire()
		}
	}
}
