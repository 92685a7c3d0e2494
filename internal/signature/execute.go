package signature

import (
	"fmt"
	"math"

	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/obs"
	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

// PhaseMeasurement is the timing of one phase measured by the
// signature on a target machine.
type PhaseMeasurement struct {
	PhaseID int
	Weight  int
	// ET is the measured phase execution time on the target.
	ET vtime.Duration
	// Restart and Warmup are the checkpoint-restore and warm-up costs
	// paid before the measurement.
	Restart vtime.Duration
	Warmup  vtime.Duration
}

// Contribution is the phase's term in Equation (1).
func (m PhaseMeasurement) Contribution() vtime.Duration {
	return m.ET * vtime.Duration(m.Weight)
}

// ExecResult is what one signature execution yields.
type ExecResult struct {
	// SET is the signature execution time: the virtual time the whole
	// signature run took (restarts + warm-ups + measured phases).
	SET vtime.Duration
	// PET is the predicted application execution time from Eq. (1).
	PET vtime.Duration
	// Phases lists per-phase measurements in execution order.
	Phases []PhaseMeasurement
	// LostPhases lists phases abandoned after an unrecovered injected
	// crash (restart retry budget exhausted on some rank); their terms
	// are missing from PET.
	LostPhases []int
	// Degraded flags a prediction computed from surviving phases only.
	Degraded bool
}

// ErrISAMismatch is returned when a signature is executed on a machine
// with a different instruction set than it was built on; per §7 the
// signature must be rebuilt from the phase table in that case.
type ErrISAMismatch struct {
	BaseISA, TargetISA string
}

func (e *ErrISAMismatch) Error() string {
	return fmt.Sprintf("signature: built for ISA %q, target runs %q: rebuild the signature from the phase table on the target machine",
		e.BaseISA, e.TargetISA)
}

// Execute runs the signature on a target machine: each checkpoint is
// restarted, the warm-up region runs cold, the phase is measured once,
// and Equation (1) predicts the full application execution time. The
// run ends once every rank has measured (or abandoned) its last phase.
func (s *Signature) Execute(target *machine.Deployment) (*ExecResult, error) {
	if target == nil {
		return nil, fmt.Errorf("signature: nil target deployment")
	}
	if target.Cluster.ISA != s.BaseISA {
		return nil, &ErrISAMismatch{BaseISA: s.BaseISA, TargetISA: target.Cluster.ISA}
	}
	if target.Ranks != s.App.Procs {
		return nil, fmt.Errorf("signature: target deployment has %d ranks, signature has %d processes",
			target.Ranks, s.App.Procs)
	}
	restartCost := s.Options.Checkpoint.RestartTime(s.Options.StateBytesPerRank)

	// Crash plans are decided up front from the injector's pure hash
	// (phase, rank): every rank sees the same plan without coordination,
	// so the whole execution agrees on which restarts crash and which
	// phases are abandoned before any virtual time passes.
	inj := s.Options.Faults
	inj.SetObserver(s.Options.Observer)
	var lost []bool               // [segment]: some rank's retries exhausted
	var segFailures []int         // [segment]: coordinated failed attempts (max over ranks)
	var segRetry []vtime.Duration // [segment]: priced retry cost, identical on every rank
	if inj != nil && inj.Config().CrashRate > 0 {
		lost = make([]bool, len(s.segments))
		segFailures = make([]int, len(s.segments))
		segRetry = make([]vtime.Duration, len(s.segments))
		backoff := inj.Config().RestartBackoff
		for i, seg := range s.segments {
			for r := 0; r < s.App.Procs; r++ {
				p := inj.Restart(seg.row.PhaseID, r)
				if !p.Recovered {
					lost[i] = true
				}
				// The restore is coordinated: one rank crashing fails the
				// whole cluster's attempt, so the retry count — and the
				// uniformly paid cost — is the worst rank's.
				if p.Failures > segFailures[i] {
					segFailures[i] = p.Failures
				}
			}
			segRetry[i] = s.Options.Checkpoint.RestartRetryCost(
				s.Options.StateBytesPerRank, segFailures[i], backoff)
			if lost[i] {
				inj.NotePhaseLost(seg.row.PhaseID)
			}
		}
	}

	// Shared measurement state: the engine serialises all goroutines,
	// and each slot is written by exactly one rank.
	meas := make([][]cell, len(s.segments))
	for i := range meas {
		meas[i] = make([]cell, s.App.Procs)
	}

	sp := s.Options.Observer.StartSpan("signature.execute")
	res, err := mpi.Run(s.App, mpi.RunConfig{
		Deployment:    target,
		Observer:      s.Options.Observer,
		Faults:        inj,
		TimelineLabel: fmt.Sprintf("sig:%s (%d ranks)", s.App.Name, s.App.Procs),
		NewInterceptor: func(rank int) mpi.Interceptor {
			x := &executorInterceptor{
				rank: rank, segs: s.segments, restart: restartCost,
				cold:   s.Options.ColdFactor,
				record: func(seg int, c cell) { meas[seg][rank] = c },
			}
			if rank == 0 {
				// One flight event per cluster-wide transition, not one
				// per rank: only rank 0 carries the observer.
				x.obs = s.Options.Observer
			}
			if lost != nil {
				x.lost = lost
				x.failures = segFailures
				x.retry = segRetry
			}
			return x
		},
	})
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("signature: execution run: %w", err)
	}
	sp.SetCounter("restarts", int64(len(s.segments)))

	out := &ExecResult{SET: res.Elapsed}
	for i, seg := range s.segments {
		if lost != nil && lost[i] {
			// Graceful degradation: the phase's term is dropped from
			// Eq. (1) and reported instead of failing the execution.
			out.LostPhases = append(out.LostPhases, seg.row.PhaseID)
			continue
		}
		var lastStart, lastEnd, lastEnd2 vtime.Time
		var restart, warm vtime.Duration
		var spanSum vtime.Duration
		spanN := 0
		have, paired := false, false
		for r := 0; r < s.App.Procs; r++ {
			cl := meas[i][r]
			if !cl.started || !cl.ended || (cl.start == cl.end && cl.end2 <= cl.end) {
				// Ranks with no events inside the phase window carry
				// no timing information.
				continue
			}
			if cl.start > lastStart {
				lastStart = cl.start
			}
			if cl.end > lastEnd {
				lastEnd = cl.end
			}
			spanSum += cl.end.Sub(cl.start)
			spanN++
			if cl.paired {
				paired = true
				if cl.end2 > lastEnd2 {
					lastEnd2 = cl.end2
				}
			}
			if cl.restart > restart {
				restart = cl.restart
			}
			if cl.warm > warm {
				warm = cl.warm
			}
			have = true
		}
		if !have {
			sp.End()
			return nil, fmt.Errorf("signature: phase %d was never measured (no process entered it)", seg.row.PhaseID)
		}
		// Candidate estimators for the phase execution time; see
		// ETEstimator for the trade-offs.
		lastSpan := lastEnd.Sub(lastStart)
		pairDelta := lastSpan
		if paired && lastEnd2 > lastEnd {
			pairDelta = lastEnd2.Sub(lastEnd)
		}
		meanSpan := lastSpan
		if spanN > 0 {
			meanSpan = spanSum / vtime.Duration(spanN)
		}
		var et vtime.Duration
		switch s.Options.Estimator {
		case EstimatorLastSpan:
			et = lastSpan
		case EstimatorMeanSpan:
			et = meanSpan
		default: // EstimatorPairDelta
			et = pairDelta
			// Pair-bias correction (wavefront pipelining): the table
			// records how far the designated pair's delta sat from the
			// phase's mean occurrence duration on the base machine;
			// scale the target-side delta by the same ratio. Tables
			// persisted before the correction carry 0 here, meaning 1.
			if sc := seg.row.ETScale; paired && sc > 0 && sc != 1 {
				scaled := math.Round(float64(et) * sc)
				if !(scaled < math.MaxInt64) {
					sp.End()
					return nil, fmt.Errorf("signature: phase %d: ET %v scaled by %v overflows", seg.row.PhaseID, et, sc)
				}
				et = vtime.Duration(scaled)
			}
		}
		m := PhaseMeasurement{
			PhaseID: seg.row.PhaseID,
			Weight:  seg.row.Weight,
			ET:      et,
			Restart: restart,
			Warmup:  warm,
		}
		out.Phases = append(out.Phases, m)
		pet, ok := vtime.AddWeighted(out.PET, m.ET, m.Weight)
		if !ok {
			sp.End()
			return nil, fmt.Errorf("signature: phase %d: Equation (1) overflows: PET so far %d + ET %d × weight %d",
				m.PhaseID, out.PET, m.ET, m.Weight)
		}
		out.PET = pet
	}
	out.Degraded = len(out.LostPhases) > 0
	sp.SetCounter("phases_measured", int64(len(out.Phases)))
	if out.Degraded {
		sp.SetCounter("phases_lost", int64(len(out.LostPhases)))
	}
	sp.End()
	inj.Publish(s.Options.Observer.Reg())
	return out, nil
}

// executorInterceptor drives one rank through skip / restart / warm-up
// / measure transitions at the replay positions of the phase table.
type executorInterceptor struct {
	rank    int
	segs    []segment
	restart vtime.Duration
	cold    float64
	record  func(seg int, c cell)

	// Injected crash plan, indexed by segment and shared by all ranks
	// (nil without crash faults): lost marks segments abandoned
	// cluster-wide, failures and retry carry the coordinated crashed
	// attempt count and the priced retry cost (failed restores plus
	// exponential backoff), identical on every rank so recovery shifts
	// all clocks uniformly and never skews the measurement.
	lost     []bool
	failures []int
	retry    []vtime.Duration

	// obs (rank 0 only) records checkpoint restarts and abandoned
	// phases on the flight recorder.
	obs *obs.Observer

	seg   int
	state execState
	cur   cell
}

// cell is one rank's measurement of one phase.
type cell struct {
	start, end, end2 vtime.Time
	restart, warm    vtime.Duration
	started, ended   bool
	paired           bool
}

type execState int8

const (
	stSkip execState = iota
	stWarmup
	stMeasure
	stMeasure2
	stDone
)

// Init puts the rank in skip mode before any application code runs:
// nothing before the first checkpoint costs time (it was never
// executed; the first restart recreates its state).
func (x *executorInterceptor) Init(c *mpi.Comm) {
	c.SetMode(0, true)
	x.at(c, 0)
}

func (x *executorInterceptor) retryAt() vtime.Duration {
	if x.retry == nil {
		return 0
	}
	return x.retry[x.seg]
}

func (x *executorInterceptor) failuresAt() int {
	if x.failures == nil {
		return 0
	}
	return x.failures[x.seg]
}

func (x *executorInterceptor) After(c *mpi.Comm, kind trace.Kind, idx int64) {
	x.at(c, idx+1)
}

func (x *executorInterceptor) at(c *mpi.Comm, pos int64) {
	for x.seg < len(x.segs) {
		seg := &x.segs[x.seg]
		switch x.state {
		case stSkip:
			if pos != seg.ckpt[x.rank] {
				return
			}
			if x.lost != nil && x.lost[x.seg] {
				// Some rank exhausted its restart retries: the phase is
				// abandoned cluster-wide. Pay this rank's attempted
				// restores, then fast-forward through the segment with
				// no measurement.
				c.SetMode(1, false)
				if c.TimelineOn() {
					c.Annotate(fmt.Sprintf("phase %d abandoned (%d crashed restarts)",
						seg.row.PhaseID, x.failures[x.seg]))
				}
				x.obs.Event("exec.phase_abandoned",
					fmt.Sprintf("phase %d dropped from Eq. (1) after %d crashed restarts",
						seg.row.PhaseID, x.failures[x.seg]),
					x.rank, int64(seg.row.PhaseID))
				c.Elapse(x.restart + x.retry[x.seg])
				c.SetMode(0, true)
				x.seg++
				continue
			}
			// Restart the checkpoint: pay the restore cost at full
			// price (leave free mode first) — plus any injected crash
			// retries — then run the warm-up region with a cold machine.
			x.cur = cell{restart: x.restart + x.retryAt()}
			if x.obs != nil {
				x.obs.Event("exec.restart",
					fmt.Sprintf("checkpoint restart, phase %d (%d crashed attempts)",
						seg.row.PhaseID, x.failuresAt()),
					x.rank, int64(seg.row.PhaseID))
			}
			c.SetMode(1, false)
			if c.TimelineOn() {
				if f := x.failuresAt(); f > 0 {
					c.Annotate(fmt.Sprintf("restart ckpt (phase %d, %d crashed attempts)",
						seg.row.PhaseID, f))
				} else {
					c.Annotate(fmt.Sprintf("restart ckpt (phase %d)", seg.row.PhaseID))
				}
			}
			c.Elapse(x.cur.restart)
			warmStart := c.Now()
			x.cur.warm = -vtime.Duration(warmStart) // finalised below
			x.state = stWarmup
			if seg.ckpt[x.rank] < seg.row.StartEvents[x.rank] {
				c.SetMode(x.cold, false)
				return
			}
			// No warm-up region for this rank; fall through to measure.
			continue
		case stWarmup:
			if pos < seg.row.StartEvents[x.rank] {
				return
			}
			x.cur.warm += vtime.Duration(c.Now()) // warm = now - warmStart
			c.SetMode(1, false)
			x.cur.start = c.Now()
			x.cur.started = true
			if c.TimelineOn() {
				c.Annotate(fmt.Sprintf("phase %d measure start", seg.row.PhaseID))
			}
			x.state = stMeasure
			continue
		case stMeasure:
			if pos < seg.row.EndEvents[x.rank] {
				return
			}
			x.cur.end = c.Now()
			x.cur.ended = true
			if c.TimelineOn() {
				c.Annotate(fmt.Sprintf("phase %d measure end", seg.row.PhaseID))
			}
			if seg.row.HasPair {
				// Keep running at full cost through the immediately
				// following occurrence; its completion cut gives the
				// marginal per-repetition time.
				x.cur.paired = true
				x.state = stMeasure2
				continue
			}
			c.SetMode(0, true)
			x.record(x.seg, x.cur)
			x.seg++
			x.state = stSkip
			continue
		case stMeasure2:
			if pos < seg.row.End2Events[x.rank] {
				return
			}
			x.cur.end2 = c.Now()
			c.SetMode(0, true)
			x.record(x.seg, x.cur)
			x.seg++
			x.state = stSkip
			continue
		default:
			return
		}
	}
	if x.state != stDone {
		// Every segment is measured or abandoned: the rest of the run
		// is never executed.
		x.state = stDone
		c.Retire()
	}
}
