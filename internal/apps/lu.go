package apps

import (
	"fmt"

	"pas2p/internal/mpi"
)

// luParams models NPB LU: an SSOR solver whose lower/upper triangular
// sweeps propagate as a wavefront of many small per-k-plane messages —
// which is why LU produces by far the largest tracefiles in the
// paper's Table 8.
type luParams struct {
	grid         int
	iters        int
	kBlocks      int // pencil handoffs per sweep (NPB sends per k-plane)
	flopsPerCell float64
}

var luWorkloads = map[string]luParams{
	"classA": {grid: 64, iters: 50, kBlocks: 8, flopsPerCell: 5e4},
	"classB": {grid: 102, iters: 60, kBlocks: 12, flopsPerCell: 5e4},
	"classC": {grid: 162, iters: 80, kBlocks: 16, flopsPerCell: 5e4},
	"classD": {grid: 408, iters: 100, kBlocks: 20, flopsPerCell: 1.5e4},
}

func init() {
	register(&Spec{
		Name:              "lu",
		Workloads:         []string{"classA", "classB", "classC", "classD"},
		DefaultWorkload:   "classC",
		StateBytesPerRank: 80 << 20,
		Make:              makeLU,
	})
}

// makeLU builds the SSOR wavefront: every iteration performs a lower
// sweep (receive from north and west, compute the block, send to south
// and east, once per k block) and the mirrored upper sweep, then a
// residual reduction every few iterations. Edge processes skip the
// absent neighbours, so per-process event counts differ — exercising
// the analyzer's handling of ragged traces.
func makeLU(procs int, workload string) (mpi.App, error) {
	w, err := pickWorkload("lu", workload, luWorkloads)
	if err != nil {
		return mpi.App{}, err
	}
	if procs < 4 {
		return mpi.App{}, fmt.Errorf("apps: lu needs at least 4 processes")
	}
	rows, cols := grid2D(procs)
	pencil := 8 * 5 * w.grid / cols * 2 // a k-plane boundary pencil
	cellsPerProc := float64(w.grid) * float64(w.grid) * float64(w.grid) / float64(procs)
	blockFlops := w.flopsPerCell * cellsPerProc / float64(w.kBlocks) / 2
	return mpi.App{
		Name:  "lu",
		Procs: procs,
		Body: func(c *mpi.Comm) {
			me := c.Rank()
			r, q := me/cols, me%cols
			work := mkbuf(2, float64(me))
			c.Bcast(0, mkbuf(8, 3))
			c.Barrier()
			sweep := func(recvA, recvB, sendA, sendB int, tag int) {
				for k := 0; k < w.kBlocks; k++ {
					if recvA >= 0 {
						c.RecvN(recvA, tag)
					}
					if recvB >= 0 {
						c.RecvN(recvB, tag)
					}
					c.Compute(blockFlops)
					if sendA >= 0 {
						c.SendN(sendA, tag, pencil)
					}
					if sendB >= 0 {
						c.SendN(sendB, tag, pencil)
					}
				}
			}
			north, south := -1, -1
			west, east := -1, -1
			if r > 0 {
				north = (r-1)*cols + q
			}
			if r < rows-1 {
				south = (r+1)*cols + q
			}
			if q > 0 {
				west = r*cols + q - 1
			}
			if q < cols-1 {
				east = r*cols + q + 1
			}
			for it := 0; it < w.iters; it++ {
				// Lower-triangular sweep: NW -> SE wavefront.
				sweep(north, west, south, east, 20)
				// Upper-triangular sweep: SE -> NW wavefront.
				sweep(south, east, north, west, 21)
				if it%5 == 4 {
					c.Allreduce([]float64{work[0]}, mpi.Sum)
				}
			}
			c.Allreduce([]float64{work[1]}, mpi.Max)
		},
	}, nil
}
