package apps

import (
	"fmt"

	"pas2p/internal/mpi"
)

// gromacsParams models a GROMACS-style domain-decomposition MD run:
// halo exchange of home atoms with grid neighbours, a long-range PME
// step with its transpose every few steps, and global energy
// reductions. Load is mildly rank-dependent (solvent/protein split),
// exercising the 85 percent compute-similarity tolerance.
type gromacsParams struct {
	atoms   int
	steps   int
	pmeFreq int
	flops   float64
}

var gromacsWorkloads = map[string]gromacsParams{
	"d.villin": {atoms: 400000, steps: 400, pmeFreq: 4, flops: 8500},
	"d.lzm":    {atoms: 160000, steps: 250, pmeFreq: 4, flops: 8500},
}

func init() {
	register(&Spec{
		Name:              "gromacs",
		Workloads:         []string{"d.villin", "d.lzm"},
		DefaultWorkload:   "d.villin",
		StateBytesPerRank: 56 << 20,
		Make:              makeGromacs,
	})
}

func makeGromacs(procs int, workload string) (mpi.App, error) {
	w, err := pickWorkload("gromacs", workload, gromacsWorkloads)
	if err != nil {
		return mpi.App{}, err
	}
	if procs < 4 {
		return mpi.App{}, fmt.Errorf("apps: gromacs needs at least 4 processes")
	}
	rows, cols := grid2D(procs)
	atomsPerProc := float64(w.atoms) / float64(procs)
	halo := int(8 * atomsPerProc * 3 / 8)
	pmeBlock := int(16 * atomsPerProc / float64(procs))
	if pmeBlock < 8 {
		pmeBlock = 8
	}
	return mpi.App{
		Name:  "gromacs",
		Procs: procs,
		Body: func(c *mpi.Comm) {
			me := c.Rank()
			r, q := me/cols, me%cols
			east := r*cols + (q+1)%cols
			west := r*cols + (q+cols-1)%cols
			south := ((r+1)%rows)*cols + q
			north := ((r+rows-1)%rows)*cols + q
			// Mild static imbalance: ranks owning protein regions
			// compute ~8% more.
			imbalance := 1.0
			if me%4 == 0 {
				imbalance = 1.08
			}
			work := mkbuf(3, float64(me))
			pme := mkbuf(2*c.Size(), float64(me))
			c.Bcast(0, mkbuf(32, 9))
			c.Barrier()
			for step := 0; step < w.steps; step++ {
				// Short-range nonbonded forces with halo exchange.
				c.SendrecvN(east, 80, halo, west, 80)
				c.SendrecvN(south, 81, halo, north, 81)
				c.Compute(w.flops * atomsPerProc * 40 * imbalance)
				// PME long-range electrostatics every pmeFreq steps.
				if step%w.pmeFreq == 0 {
					pme = c.AlltoallSized(pme, pmeBlock)
					c.Compute(w.flops * atomsPerProc * 12)
				}
				// Energy/virial reduction.
				c.Allreduce([]float64{work[0], work[1], work[2]}, mpi.Sum)
			}
			c.Allreduce([]float64{work[0]}, mpi.Max)
		},
	}, nil
}
