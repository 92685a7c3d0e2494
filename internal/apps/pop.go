package apps

import (
	"fmt"
	"strconv"
	"strings"

	"pas2p/internal/mpi"
)

// popParams models the Parallel Ocean Program's characteristic
// two-regime timestep: a compute-heavy baroclinic part with wide halo
// exchanges, and a barotropic solver that performs many latency-bound
// conjugate-gradient iterations, each with a tiny halo update and a
// global dot product. The paper drives it with a synthetic 150-step
// workload.
type popParams struct {
	grid        int
	steps       int
	solverIters int
	flops       float64
}

func init() {
	register(&Spec{
		Name:              "pop",
		Workloads:         []string{"synthetic150", "synthetic60"},
		DefaultWorkload:   "synthetic150",
		StateBytesPerRank: 96 << 20,
		Make:              makePOP,
	})
}

func parsePOPWorkload(workload string) (popParams, error) {
	w := popParams{grid: 384, steps: 150, solverIters: 8, flops: 7.2e4}
	name := strings.TrimSpace(workload)
	if !strings.HasPrefix(name, "synthetic") {
		return w, fmt.Errorf("apps: pop: unknown workload %q (want syntheticN)", workload)
	}
	if rest := strings.TrimPrefix(name, "synthetic"); rest != "" {
		steps, err := strconv.Atoi(rest)
		if err != nil || steps <= 0 {
			return w, fmt.Errorf("apps: pop: bad step count in %q", workload)
		}
		w.steps = steps
	}
	return w, nil
}

// makePOP builds the ocean-model kernel on a 2-D tiling of the globe.
func makePOP(procs int, workload string) (mpi.App, error) {
	w, err := parsePOPWorkload(workload)
	if err != nil {
		return mpi.App{}, err
	}
	if procs < 4 {
		return mpi.App{}, fmt.Errorf("apps: pop needs at least 4 processes")
	}
	rows, cols := grid2D(procs)
	tile := float64(w.grid) * float64(w.grid) / float64(procs)
	wideHalo := 8 * 40 * w.grid / cols // 40 depth levels
	thinHalo := 8 * w.grid / cols      // 2-D barotropic field
	return mpi.App{
		Name:  "pop",
		Procs: procs,
		Body: func(c *mpi.Comm) {
			me := c.Rank()
			r, q := me/cols, me%cols
			north := ((r+rows-1)%rows)*cols + q
			south := ((r+1)%rows)*cols + q
			west := r*cols + (q+cols-1)%cols
			east := r*cols + (q+1)%cols
			work := mkbuf(8, float64(me))
			c.Bcast(0, mkbuf(16, 7))
			c.Barrier()
			for step := 0; step < w.steps; step++ {
				// Baroclinic part: 3-D tracers, wide halos, heavy
				// compute.
				c.Compute(w.flops * tile * 40)
				c.SendrecvN(east, 60, wideHalo, west, 60)
				c.SendrecvN(south, 61, wideHalo, north, 61)
				// Barotropic solver: latency-bound CG iterations.
				for s := 0; s < w.solverIters; s++ {
					c.Compute(w.flops * tile / 20)
					c.SendrecvN(east, 62, thinHalo, west, 62)
					c.SendrecvN(south, 63, thinHalo, north, 63)
					c.Allreduce([]float64{work[s%8]}, mpi.Sum)
				}
				// Energy diagnostics every 10 steps.
				if step%10 == 9 {
					c.Allreduce([]float64{work[0], work[1], work[2]}, mpi.Sum)
				}
			}
		},
	}, nil
}
