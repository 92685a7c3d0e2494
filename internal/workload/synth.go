// Synthetic trace generation for out-of-core scale testing. The
// simulator-backed apps materialise their whole event stream in
// memory, which is exactly what a 100M-event soak of the streaming
// pipeline must not do — so Synthesize writes a v2 tracefile directly
// through trace.BlockWriter in O(1) memory: an iterative ring exchange
// with a periodic allreduce, the canonical SPMD shape whose repeating
// windows the phase stage folds into a handful of phases.
//
// The generated trace is fully consistent under the PAS2P ordering:
// every receive references its matching send's (source, sequence)
// identity, every collective occurrence is joined by all ranks, and
// per-rank physical clocks are strictly monotone. Events are emitted
// grouped by rank in rank order — the layout trace.RankStreams random-
// accesses — and timing is a pure function of (Seed, iteration), so
// the same spec always produces byte-identical files.
package workload

import (
	"fmt"
	"io"

	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

// SynthSpec describes a synthetic ring+allreduce trace.
type SynthSpec struct {
	// AppName labels the tracefile header ("" selects "synth-ring").
	AppName string
	// Procs is the rank count (>= 2).
	Procs int
	// TargetEvents is the desired total event count across all ranks;
	// the generator emits the largest whole-iteration count not
	// exceeding it (at least one iteration).
	TargetEvents int64
	// CollEvery inserts an allreduce every this many iterations
	// (0 selects 10).
	CollEvery int
	// Seed perturbs the per-iteration compute times deterministically.
	Seed uint64
}

func (s SynthSpec) withDefaults() SynthSpec {
	if s.AppName == "" {
		s.AppName = "synth-ring"
	}
	if s.CollEvery <= 0 {
		s.CollEvery = 10
	}
	return s
}

// validate rejects specs the generator cannot honour.
func (s SynthSpec) validate() error {
	if s.Procs < 2 {
		return fmt.Errorf("workload: synth: need >= 2 procs, have %d", s.Procs)
	}
	if s.TargetEvents < int64(2*s.Procs) {
		return fmt.Errorf("workload: synth: target %d events cannot fit one iteration on %d procs",
			s.TargetEvents, s.Procs)
	}
	return nil
}

// iterations resolves the whole-iteration count for the target.
func (s SynthSpec) iterations() int64 {
	r := int64(s.CollEvery)
	perProc := s.TargetEvents / int64(s.Procs)
	// perProcCount(I) = 2I + I/r is monotone; start at the continuous
	// estimate and walk to the boundary.
	i := perProc * r / (2*r + 1)
	for ; synthPerProc(i+1, r)*int64(s.Procs) <= s.TargetEvents; i++ {
	}
	for ; i > 1 && synthPerProc(i, r)*int64(s.Procs) > s.TargetEvents; i-- {
	}
	if i < 1 {
		i = 1
	}
	return i
}

func synthPerProc(iters, collEvery int64) int64 {
	return 2*iters + iters/collEvery
}

// EventCount returns the exact total event count Synthesize will emit
// for the spec (callers size soak budgets from it).
func (s SynthSpec) EventCount() int64 {
	s = s.withDefaults()
	return synthPerProc(s.iterations(), int64(s.CollEvery)) * int64(s.Procs)
}

// Timing constants: one ring step computes ~50us and exchanges 64 KiB;
// a collective iteration adds a ~150us reduction step. The jitter keys
// on the iteration only (not the rank), so every rank shares one clock
// trajectory and the application execution time is computable from a
// single rank's walk.
const (
	synthMsgBytes = 64 << 10
	synthSendCost = 5 * vtime.Microsecond
	synthRecvCost = 8 * vtime.Microsecond
	synthCollCost = 30 * vtime.Microsecond
	synthRingWork = 50 * vtime.Microsecond
	synthRecvGap  = 2 * vtime.Microsecond
	synthCollWork = 150 * vtime.Microsecond
	synthCollCtx  = 1 // RelA context id for the allreduce chain
	synthRingTag  = 7
)

// jitter derives a small deterministic compute perturbation from the
// seed and iteration (SplitMix64 finaliser).
func jitter(seed uint64, i int64) vtime.Duration {
	x := seed + uint64(i)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return vtime.Duration(x%20) * vtime.Microsecond
}

// synthAET walks one rank's clock over all iterations to obtain the
// application execution time the header declares.
func synthAET(iters int64, collEvery int64, seed uint64) vtime.Duration {
	var clock vtime.Time
	for i := int64(0); i < iters; i++ {
		j := jitter(seed, i)
		clock += vtime.Time(synthRingWork + j + synthSendCost)
		clock += vtime.Time(synthRecvGap + synthRecvCost)
		if i%collEvery == collEvery-1 {
			clock += vtime.Time(synthCollWork + j + synthCollCost)
		}
	}
	return vtime.Duration(clock)
}

// Synthesize streams the spec's trace to w as a v2 tracefile, emitting
// events rank by rank through a reused block-sized buffer — resident
// memory is independent of the event count. It returns the header
// metadata (with the exact emitted event count).
func Synthesize(w io.Writer, spec SynthSpec) (trace.Meta, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return trace.Meta{}, err
	}
	iters := spec.iterations()
	collEvery := int64(spec.CollEvery)
	perProc := synthPerProc(iters, collEvery)
	total := perProc * int64(spec.Procs)
	meta := trace.Meta{
		AppName: spec.AppName,
		Procs:   spec.Procs,
		Events:  uint64(total),
		AET:     synthAET(iters, collEvery, spec.Seed),
	}
	bw, err := trace.NewBlockWriter(w, meta, trace.CodecOptions{})
	if err != nil {
		return trace.Meta{}, err
	}

	const chunk = 2048
	buf := make([]trace.Event, 0, chunk)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if err := bw.Append(buf); err != nil {
			return err
		}
		buf = buf[:0]
		return nil
	}

	for p := 0; p < spec.Procs; p++ {
		p32 := int32(p)
		prev := int32((p - 1 + spec.Procs) % spec.Procs)
		next := int32((p + 1) % spec.Procs)
		var clock vtime.Time
		var num int64
		emit := func(e trace.Event) error {
			e.Process = p32
			e.Number = num
			e.LT = trace.NoLT
			num++
			buf = append(buf, e)
			if len(buf) == chunk {
				return flush()
			}
			return nil
		}
		for i := int64(0); i < iters; i++ {
			j := jitter(spec.Seed, i)
			// Ring send to the successor; the per-rank send sequence is
			// exactly the iteration number.
			enter := clock + vtime.Time(synthRingWork+j)
			exit := enter + vtime.Time(synthSendCost)
			if err := emit(trace.Event{
				Kind: trace.Send, Involved: 2, CollOp: -1,
				Peer: next, Tag: synthRingTag, Size: synthMsgBytes,
				Enter: enter, Exit: exit,
				RelA: int64(p), RelB: i,
				ComputeBefore: synthRingWork + j,
			}); err != nil {
				return trace.Meta{}, err
			}
			clock = exit
			// Matching receive from the predecessor's iteration-i send.
			enter = clock + vtime.Time(synthRecvGap)
			exit = enter + vtime.Time(synthRecvCost)
			if err := emit(trace.Event{
				Kind: trace.Recv, Involved: 2, CollOp: -1,
				Peer: prev, Tag: synthRingTag, Size: synthMsgBytes,
				Enter: enter, Exit: exit,
				RelA: int64(prev), RelB: i,
				ComputeBefore: synthRecvGap,
			}); err != nil {
				return trace.Meta{}, err
			}
			clock = exit
			if i%collEvery == collEvery-1 {
				enter = clock + vtime.Time(synthCollWork+j)
				exit = enter + vtime.Time(synthCollCost)
				if err := emit(trace.Event{
					Kind: trace.Collective, Involved: int32(spec.Procs),
					CollOp: int8(3), // network.Allreduce
					Peer:   -1, Tag: 0, Size: 8 * int64(spec.Procs),
					Enter: enter, Exit: exit,
					RelA: synthCollCtx, RelB: i / collEvery,
					ComputeBefore: synthCollWork + j,
				}); err != nil {
					return trace.Meta{}, err
				}
				clock = exit
			}
		}
	}
	if err := flush(); err != nil {
		return trace.Meta{}, err
	}
	if err := bw.Close(); err != nil {
		return trace.Meta{}, err
	}
	return meta, nil
}
