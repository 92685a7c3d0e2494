package predict

import (
	"fmt"

	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/trace"
	"pas2p/internal/vtime"
)

// PartialExec is the related-work baseline of Yang et al. [17]:
// observe a window of early timesteps on the target machine and
// extrapolate linearly, assuming the application "behaves predictably
// after an algorithm initialization period". PAS2P's advantage (§2) is
// analysing the entire execution; the ablation benchmarks quantify the
// difference on applications whose behaviour shifts over time.
type PartialExec struct {
	// InitFraction of each rank's events is discarded as start-up.
	InitFraction float64
	// ObserveFraction of each rank's events is measured after the
	// start-up cut.
	ObserveFraction float64
}

// DefaultPartialExec observes 10 percent of the run after a 5 percent
// initialisation cut.
func DefaultPartialExec() PartialExec {
	return PartialExec{InitFraction: 0.05, ObserveFraction: 0.10}
}

// PartialResult is the baseline's prediction.
type PartialResult struct {
	// PET is the extrapolated application execution time.
	PET vtime.Duration
	// Cost is how long the partial execution itself ran (its analogue
	// of the signature execution time).
	Cost vtime.Duration
}

// Predict runs the partial execution on the target. totalEvents gives
// each rank's full event count, taken from the base-machine trace
// (the baseline, like PAS2P, is allowed one analysed base run).
func (b PartialExec) Predict(app mpi.App, target *machine.Deployment, totalEvents []int64) (*PartialResult, error) {
	if b.InitFraction < 0 || b.ObserveFraction <= 0 || b.InitFraction+b.ObserveFraction > 1 {
		return nil, fmt.Errorf("predict: partial execution fractions %v/%v invalid", b.InitFraction, b.ObserveFraction)
	}
	if len(totalEvents) != app.Procs {
		return nil, fmt.Errorf("predict: partial execution needs per-rank event totals")
	}
	marks := make([]partialMark, app.Procs)
	res, err := mpi.Run(app, mpi.RunConfig{
		Deployment: target,
		NewInterceptor: func(rank int) mpi.Interceptor {
			total := totalEvents[rank]
			kInit := int64(float64(total) * b.InitFraction)
			kEnd := kInit + int64(float64(total)*b.ObserveFraction)
			if kEnd <= kInit {
				kEnd = kInit + 1
			}
			marks[rank].total = total
			marks[rank].kInit, marks[rank].kEnd = kInit, kEnd
			return &partialInterceptor{rank: rank, kInit: kInit, kEnd: kEnd, marks: marks}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("predict: partial execution: %w", err)
	}
	// Extrapolate per rank 0's observation window (the usual choice;
	// windows are globally aligned by the app's own synchronisation).
	m := marks[0]
	if !m.haveI || !m.haveE {
		return nil, fmt.Errorf("predict: observation window never completed (app too short)")
	}
	window := m.tEnd.Sub(m.tInit)
	remaining := float64(m.total-m.kInit) / float64(m.kEnd-m.kInit)
	pet := vtime.Duration(float64(m.tInit)) + vtime.Duration(float64(window)*remaining)
	return &PartialResult{PET: pet, Cost: res.Elapsed}, nil
}

// partialInterceptor records the window boundary times and retires
// each rank once its observation completes.
type partialInterceptor struct {
	rank        int
	kInit, kEnd int64
	marks       []partialMark
}

// partialMark records one rank's observation-window boundaries.
type partialMark struct {
	tInit, tEnd  vtime.Time
	kInit, kEnd  int64
	total        int64
	haveI, haveE bool
}

func (x *partialInterceptor) Init(c *mpi.Comm) {}

func (x *partialInterceptor) After(c *mpi.Comm, kind trace.Kind, idx int64) {
	pos := idx + 1
	m := &x.marks[x.rank]
	if !m.haveI && pos >= x.kInit {
		m.tInit = c.Now()
		m.haveI = true
	}
	if !m.haveE && pos >= x.kEnd {
		m.tEnd = c.Now()
		m.haveE = true
		// Observation finished: the rest of the run costs nothing
		// (the baseline would stop the job here), and the run ends
		// once every rank has got this far.
		c.Retire()
	}
}
