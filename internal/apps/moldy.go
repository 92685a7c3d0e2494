package apps

import (
	"fmt"

	"pas2p/internal/mpi"
)

// moldyParams models the Moldy molecular-dynamics code with the tip4p
// water workload the paper analyses in Table 3. The timestep contains
// sub-behaviours firing at different rates, so the analysis finds
// several phases whose weights stand in roughly the 10 : 20 : 9 : 1
// proportions of Table 3's relevant set (the paper's absolute weights,
// 100k/200k/90k/10k, come from a 100k-step production run; we scale
// the step count down and keep the ratios).
type moldyParams struct {
	atoms int
	steps int
	flops float64
}

var moldyWorkloads = map[string]moldyParams{
	"tip4p":       {atoms: 512000, steps: 600, flops: 4500},
	"tip4p-short": {atoms: 512000, steps: 120, flops: 4500},
	"quartz":      {atoms: 270000, steps: 400, flops: 6000},
}

func init() {
	register(&Spec{
		Name:              "moldy",
		Workloads:         []string{"tip4p", "tip4p-short", "quartz"},
		DefaultWorkload:   "tip4p",
		StateBytesPerRank: 48 << 20,
		Make:              makeMoldy,
	})
}

// makeMoldy builds the MD kernel: each timestep exchanges boundary
// atoms around a ring (replicated-data Moldy reduces forces globally),
// computes pair forces, and reduces the partial forces and energies;
// every other step the thermostat adds a second reduction round, and
// every tenth step the link-cell neighbour lists are rebuilt under an
// allgather.
func makeMoldy(procs int, workload string) (mpi.App, error) {
	w, err := pickWorkload("moldy", workload, moldyWorkloads)
	if err != nil {
		return mpi.App{}, err
	}
	if procs < 2 {
		return mpi.App{}, fmt.Errorf("apps: moldy needs at least 2 processes")
	}
	atomsPerProc := float64(w.atoms) / float64(procs)
	boundary := int(8 * atomsPerProc * 3 / 16) // boundary shell positions
	return mpi.App{
		Name:  "moldy",
		Procs: procs,
		Body: func(c *mpi.Comm) {
			n := c.Size()
			me := c.Rank()
			right := (me + 1) % n
			left := (me + n - 1) % n
			work := mkbuf(6, float64(me))
			c.Bcast(0, mkbuf(32, 8))
			c.Barrier()
			for step := 0; step < w.steps; step++ {
				// Pair-force phase: boundary exchange + force compute
				// + force reduction (fires every step: the "x10"
				// weight class, split over two reductions per step for
				// the "x20" class).
				c.SendrecvN(right, 70, boundary, left, 70)
				c.Compute(w.flops * atomsPerProc * 60)
				c.Allreduce([]float64{work[0], work[1]}, mpi.Sum)
				c.Compute(w.flops * atomsPerProc * 10)
				c.Allreduce([]float64{work[2], work[3]}, mpi.Sum)
				// Thermostat/constraint round: 9 of 10 steps (x9).
				if step%10 != 9 {
					c.Compute(w.flops * atomsPerProc * 5)
					c.SendrecvN(left, 71, boundary/4, right, 71)
				}
				// Neighbour-list rebuild: every 10th step (x1).
				if step%10 == 9 {
					c.Compute(w.flops * atomsPerProc * 25)
					c.Allgather([]float64{work[4], work[5]})
				}
			}
			c.Allreduce([]float64{work[0]}, mpi.Sum)
		},
	}, nil
}
