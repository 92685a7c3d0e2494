package apps

import (
	"fmt"

	"pas2p/internal/mpi"
)

// adiParams covers the NPB BT and SP pseudo-application classes: 3-D
// grids solved by alternating-direction implicit sweeps over a 2-D
// process decomposition with face exchanges in every direction.
type adiParams struct {
	grid  int // points per dimension
	iters int
	// flopsPerCell calibrates the per-iteration compute declaration.
	flopsPerCell float64
}

var btWorkloads = map[string]adiParams{
	"classA": {grid: 64, iters: 40, flopsPerCell: 6e5},
	"classB": {grid: 102, iters: 40, flopsPerCell: 6e5},
	"classC": {grid: 162, iters: 60, flopsPerCell: 6e5},
	"classD": {grid: 408, iters: 80, flopsPerCell: 2e5},
}

var spWorkloads = map[string]adiParams{
	"classA": {grid: 64, iters: 80, flopsPerCell: 9.1e4},
	"classB": {grid: 102, iters: 80, flopsPerCell: 9.1e4},
	"classC": {grid: 162, iters: 100, flopsPerCell: 9.1e4},
	"classD": {grid: 408, iters: 120, flopsPerCell: 4e4},
}

func init() {
	register(&Spec{
		Name:              "bt",
		Workloads:         []string{"classA", "classB", "classC", "classD"},
		DefaultWorkload:   "classC",
		StateBytesPerRank: 128 << 20,
		Make: func(procs int, workload string) (mpi.App, error) {
			return makeADI("bt", procs, workload, btWorkloads)
		},
	})
	register(&Spec{
		Name:              "sp",
		Workloads:         []string{"classA", "classB", "classC", "classD"},
		DefaultWorkload:   "classC",
		StateBytesPerRank: 112 << 20,
		Make: func(procs int, workload string) (mpi.App, error) {
			return makeADI("sp", procs, workload, spWorkloads)
		},
	})
}

// makeADI builds a BT/SP-style solver: each iteration computes the
// right-hand side, then sweeps the x, y and z directions; each sweep
// exchanges cell faces with the four grid neighbours (the multi-
// partition scheme's pencil handoffs), and the iteration closes with a
// residual reduction every few steps.
func makeADI(name string, procs int, workload string, table map[string]adiParams) (mpi.App, error) {
	w, err := pickWorkload(name, workload, table)
	if err != nil {
		return mpi.App{}, err
	}
	if procs < 4 {
		return mpi.App{}, fmt.Errorf("apps: %s needs at least 4 processes", name)
	}
	rows, cols := grid2D(procs)
	cellsPerProc := float64(w.grid) * float64(w.grid) * float64(w.grid) / float64(procs)
	// A face is grid^2/(process row) cells of 5 solution variables.
	faceBytes := 8 * 5 * w.grid * w.grid / cols
	flops := w.flopsPerCell * cellsPerProc
	return mpi.App{
		Name:  name,
		Procs: procs,
		Body: func(c *mpi.Comm) {
			me := c.Rank()
			r, q := me/cols, me%cols
			north := ((r+rows-1)%rows)*cols + q
			south := ((r+1)%rows)*cols + q
			west := r*cols + (q+cols-1)%cols
			east := r*cols + (q+1)%cols
			work := mkbuf(2, float64(me))
			// Initialise the grid and share solver constants.
			c.Bcast(0, mkbuf(16, 2))
			c.Barrier()
			for it := 0; it < w.iters; it++ {
				// RHS computation.
				c.Compute(flops * 0.4)
				// x-sweep: exchange with east/west.
				c.SendrecvN(east, 10, faceBytes, west, 10)
				c.Compute(flops * 0.2)
				c.SendrecvN(west, 11, faceBytes, east, 11)
				// y-sweep: exchange with north/south.
				c.Compute(flops * 0.2)
				c.SendrecvN(south, 12, faceBytes, north, 12)
				c.Compute(flops * 0.1)
				c.SendrecvN(north, 13, faceBytes, south, 13)
				// z-sweep is process-local in this decomposition.
				c.Compute(flops * 0.1)
				if it%5 == 4 {
					c.Allreduce([]float64{work[0]}, mpi.Sum)
				}
			}
			c.Allreduce([]float64{work[1]}, mpi.Sum)
		},
	}, nil
}
