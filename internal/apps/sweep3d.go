package apps

import (
	"fmt"
	"strconv"
	"strings"

	"pas2p/internal/mpi"
)

// sweepParams models the ASCI Sweep3D neutron-transport benchmark: a
// 2-D process decomposition over which discrete-ordinate sweeps
// propagate as pipelined wavefronts, one per octant pair, in k-plane
// blocks. Workload names follow the paper's "sweep.N [iterations]"
// convention (Table 4: sweep.250, 13 iterations).
type sweepParams struct {
	grid    int
	iters   int
	kBlocks int
	flops   float64 // per cell per sweep
}

var sweepWorkloads = map[string]sweepParams{
	"sweep.150": {grid: 150, iters: 13, kBlocks: 1, flops: 3.05e4},
	"sweep.200": {grid: 200, iters: 13, kBlocks: 1, flops: 3.05e4},
	"sweep.250": {grid: 250, iters: 13, kBlocks: 1, flops: 3.05e4},
}

func init() {
	register(&Spec{
		Name:              "sweep3d",
		Workloads:         []string{"sweep.150", "sweep.200", "sweep.250"},
		DefaultWorkload:   "sweep.250",
		StateBytesPerRank: 72 << 20,
		Make:              makeSweep3D,
	})
}

// parseSweepWorkload accepts "sweep.N" or "sweep.N iters".
func parseSweepWorkload(workload string) (sweepParams, error) {
	fields := strings.Fields(workload)
	w, err := pickWorkload("sweep3d", fields[0], sweepWorkloads)
	if err != nil {
		return sweepParams{}, err
	}
	if len(fields) > 1 {
		it, err := strconv.Atoi(fields[1])
		if err != nil || it <= 0 {
			return sweepParams{}, fmt.Errorf("apps: sweep3d: bad iteration count %q", fields[1])
		}
		w.iters = it
	}
	return w, nil
}

// makeSweep3D builds the wavefront kernel: for each timestep, eight
// octants grouped into four sweep directions; in each sweep a process
// receives the inflow faces from its upstream neighbours, computes the
// block, and forwards outflow faces downstream, k-block by k-block.
func makeSweep3D(procs int, workload string) (mpi.App, error) {
	w, err := parseSweepWorkload(workload)
	if err != nil {
		return mpi.App{}, err
	}
	if procs < 4 {
		return mpi.App{}, fmt.Errorf("apps: sweep3d needs at least 4 processes")
	}
	rows, cols := grid2D(procs)
	cellsPerProc := float64(w.grid) * float64(w.grid) * float64(w.grid) / float64(procs)
	blockFlops := w.flops * cellsPerProc / float64(w.kBlocks)
	faceBytes := 8 * w.grid / cols * w.grid / rows * 24 // angles per face slab
	return mpi.App{
		Name:  "sweep3d",
		Procs: procs,
		Body: func(c *mpi.Comm) {
			me := c.Rank()
			r, q := me/cols, me%cols
			neighbour := func(dr, dq int) int {
				nr, nq := r+dr, q+dq
				if nr < 0 || nr >= rows || nq < 0 || nq >= cols {
					return -1
				}
				return nr*cols + nq
			}
			work := mkbuf(1, float64(me))
			c.Bcast(0, mkbuf(8, 5))
			c.Barrier()
			// The four sweep directions (octant pairs): (di,dj) is the
			// propagation direction across the process grid.
			dirs := [4][2]int{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}}
			for it := 0; it < w.iters; it++ {
				for d, dir := range dirs {
					tag := 30 + d
					inI, inJ := neighbour(-dir[0], 0), neighbour(0, -dir[1])
					outI, outJ := neighbour(dir[0], 0), neighbour(0, dir[1])
					for k := 0; k < w.kBlocks; k++ {
						if inI >= 0 {
							c.RecvN(inI, tag)
						}
						if inJ >= 0 {
							c.RecvN(inJ, tag)
						}
						c.Compute(blockFlops)
						if outI >= 0 {
							c.SendN(outI, tag, faceBytes)
						}
						if outJ >= 0 {
							c.SendN(outJ, tag, faceBytes)
						}
					}
				}
				// Flux convergence check.
				c.Allreduce([]float64{work[0]}, mpi.Sum)
			}
		},
	}, nil
}
