package apps

import (
	"fmt"

	"pas2p/internal/mpi"
)

// cgParams models an NPB CG class: problem rank, nonzeros, outer
// iterations and the number of (aggregated) inner CG steps per outer
// iteration. Inner steps are aggregated 5:1 relative to NPB's 25 to
// keep event counts tractable; the phase structure (inner-step phase
// dominating, weight = outer x inner) is unchanged.
type cgParams struct {
	na    int     // matrix order
	nnz   float64 // nonzeros
	outer int
	inner int
}

var cgWorkloads = map[string]cgParams{
	"classA": {na: 14000, nnz: 1.85e6, outer: 15, inner: 5},
	"classB": {na: 75000, nnz: 1.31e7, outer: 35, inner: 5},
	"classC": {na: 150000, nnz: 3.67e7, outer: 75, inner: 5},
	"classD": {na: 1500000, nnz: 7.34e8, outer: 100, inner: 5},
}

func init() {
	register(&Spec{
		Name:              "cg",
		Workloads:         []string{"classA", "classB", "classC", "classD"},
		DefaultWorkload:   "classC",
		StateBytesPerRank: 96 << 20,
		Make:              makeCG,
	})
}

// makeCG builds the NPB CG kernel: a conjugate-gradient solve over a
// random sparse matrix on a 2D process grid. Each inner step performs
// the matvec's row-group reduction (modelled as the exchange with the
// transpose partner, as NPB CG lays it out) followed by the dot-product
// allreduce; each outer iteration ends with the residual-norm
// allreduce. The compute declaration is the matvec's 2·nnz/p flops.
func makeCG(procs int, workload string) (mpi.App, error) {
	w, err := pickWorkload("cg", workload, cgWorkloads)
	if err != nil {
		return mpi.App{}, err
	}
	if procs < 2 {
		return mpi.App{}, fmt.Errorf("apps: cg needs at least 2 processes")
	}
	_, cols := grid2D(procs)
	// Exchange volume: a partition of the vector shared along a row of
	// the process grid. The calibration factor lifts per-step compute
	// into the regime the paper's clusters showed (AETs of minutes).
	const calibration = 6700
	flops := calibration * 2 * w.nnz / float64(procs)
	exchange := 8 * w.na / cols
	return mpi.App{
		Name:  "cg",
		Procs: procs,
		Body: func(c *mpi.Comm) {
			me := c.Rank()
			// Transpose partner in the process grid (NPB CG's
			// reduce_exch pattern); the mapping must be an involution
			// so the symmetric exchange pairs up. For non-square
			// process counts, adjacent ranks pair instead.
			var partner int
			if isSquare(procs) {
				partner = (me%cols)*cols + me/cols
			} else {
				partner = me ^ 1
			}
			if partner >= procs {
				partner = me
			}
			work := mkbuf(3, float64(me))
			// Initialisation: distribute the matrix structure.
			c.Bcast(0, mkbuf(8, 1))
			c.Barrier()
			for it := 0; it < w.outer; it++ {
				for in := 0; in < w.inner; in++ {
					c.Compute(flops)
					c.SendrecvN(partner, 1, exchange, partner, 1)
					c.Allreduce([]float64{work[0], work[1]}, mpi.Sum)
				}
				// Residual norm of the outer iteration.
				c.Allreduce([]float64{work[2]}, mpi.Sum)
			}
		},
	}, nil
}
