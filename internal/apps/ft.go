package apps

import (
	"fmt"

	"pas2p/internal/mpi"
)

// ftParams models NPB FT: a 3-D FFT whose global transpose is one big
// all-to-all per iteration. Few iterations and few events per
// iteration give FT the smallest tracefile and the least
// repetitiveness of the NPB set (the paper's §6 observes its largest
// weight is only ~20, which is what makes its signature-construction
// overhead the worst of Table 9).
type ftParams struct {
	nx, ny, nz   int
	iters        int
	flopsPerCell float64
}

var ftWorkloads = map[string]ftParams{
	"classA": {nx: 256, ny: 256, nz: 128, iters: 6, flopsPerCell: 7200},
	"classB": {nx: 512, ny: 256, nz: 256, iters: 20, flopsPerCell: 7200},
	"classC": {nx: 512, ny: 512, nz: 512, iters: 20, flopsPerCell: 7200},
	"classD": {nx: 2048, ny: 1024, nz: 1024, iters: 25, flopsPerCell: 3600},
}

func init() {
	register(&Spec{
		Name:              "ft",
		Workloads:         []string{"classA", "classB", "classC", "classD"},
		DefaultWorkload:   "classC",
		StateBytesPerRank: 160 << 20,
		Make:              makeFT,
	})
}

// makeFT builds the FFT kernel: per iteration a local 1-D FFT pass,
// the global transpose (all-to-all of the whole local slab), a second
// local pass and the checksum reduction.
func makeFT(procs int, workload string) (mpi.App, error) {
	w, err := pickWorkload("ft", workload, ftWorkloads)
	if err != nil {
		return mpi.App{}, err
	}
	if procs < 2 {
		return mpi.App{}, fmt.Errorf("apps: ft needs at least 2 processes")
	}
	cells := float64(w.nx) * float64(w.ny) * float64(w.nz) / float64(procs)
	flops := w.flopsPerCell * cells
	// The transpose moves the local slab (complex values, 16 B/cell)
	// split across all destinations. The cost model and the trace see
	// only the declared block volume, the real one; the in-memory slab
	// is two floats per destination, enough for the checksum payload.
	blockBytes := int(16 * cells / float64(procs))
	if blockBytes < 8 {
		blockBytes = 8
	}
	return mpi.App{
		Name:  "ft",
		Procs: procs,
		Body: func(c *mpi.Comm) {
			n := c.Size()
			slab := mkbuf(2*n, float64(c.Rank()))
			c.Bcast(0, mkbuf(8, 4))
			c.Barrier()
			// Initial forward transform.
			c.Compute(flops)
			for it := 0; it < w.iters; it++ {
				// Evolve + first local FFT pass.
				c.Compute(flops * 0.6)
				// Global transpose.
				slab = c.AlltoallSized(slab, blockBytes)
				// Second local pass and checksum.
				c.Compute(flops * 0.4)
				c.Allreduce([]float64{slab[0], slab[1]}, mpi.Sum)
			}
		},
	}, nil
}
