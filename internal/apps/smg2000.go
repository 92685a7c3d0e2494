package apps

import (
	"fmt"
	"strconv"
	"strings"

	"pas2p/internal/mpi"
)

// smgParams models SMG2000, the semicoarsening multigrid solver from
// the ASC Purple suite: V-cycles over a level hierarchy whose halo
// exchanges shrink with each coarsening, plus dot-product reductions
// in the outer CG acceleration. The paper runs "-n 200 solver 3" with
// varying iteration counts.
type smgParams struct {
	n      int // points per dimension per process
	levels int
	cycles int
	flops  float64 // per point per relaxation
}

func init() {
	register(&Spec{
		Name:              "smg2000",
		Workloads:         []string{"-n 200 solver 3", "-n 120 solver 3"},
		DefaultWorkload:   "-n 200 solver 3",
		StateBytesPerRank: 64 << 20,
		Make:              makeSMG,
	})
}

// parseSMGWorkload accepts the paper's command-line style: "-n N
// solver S [iterations I]".
func parseSMGWorkload(workload string) (smgParams, error) {
	w := smgParams{n: 200, levels: 6, cycles: 30, flops: 3.34e4}
	fields := strings.Fields(workload)
	for i := 0; i < len(fields); i++ {
		switch fields[i] {
		case "-n":
			if i+1 >= len(fields) {
				return w, fmt.Errorf("apps: smg2000: -n needs a value")
			}
			n, err := strconv.Atoi(fields[i+1])
			if err != nil || n <= 0 {
				return w, fmt.Errorf("apps: smg2000: bad -n %q", fields[i+1])
			}
			w.n = n
			i++
		case "solver":
			i++ // solver id only selects the preconditioner flavour
		case "iterations", "-iterations":
			if i+1 >= len(fields) {
				return w, fmt.Errorf("apps: smg2000: iterations needs a value")
			}
			it, err := strconv.Atoi(fields[i+1])
			if err != nil || it <= 0 {
				return w, fmt.Errorf("apps: smg2000: bad iterations %q", fields[i+1])
			}
			// The paper's iteration counts (550, 1200) are solver
			// relaxations; ~18 relaxations make one V-cycle here.
			w.cycles = it / 18
			if w.cycles < 5 {
				w.cycles = 5
			}
			i++
		default:
			return w, fmt.Errorf("apps: smg2000: unknown workload token %q", fields[i])
		}
	}
	return w, nil
}

// makeSMG builds the multigrid kernel: every V-cycle descends the
// level hierarchy (halo exchange + relaxation with geometrically
// shrinking sizes), solves the coarsest level under a gather-scatter,
// and ascends again; the cycle ends with the CG dot products.
func makeSMG(procs int, workload string) (mpi.App, error) {
	w, err := parseSMGWorkload(workload)
	if err != nil {
		return mpi.App{}, err
	}
	if procs < 4 {
		return mpi.App{}, fmt.Errorf("apps: smg2000 needs at least 4 processes")
	}
	rows, cols := grid2D(procs)
	pointsPerProc := float64(w.n) * float64(w.n) * float64(w.n)
	return mpi.App{
		Name:  "smg2000",
		Procs: procs,
		Body: func(c *mpi.Comm) {
			me := c.Rank()
			r, q := me/cols, me%cols
			north := ((r+rows-1)%rows)*cols + q
			south := ((r+1)%rows)*cols + q
			west := r*cols + (q+cols-1)%cols
			east := r*cols + (q+1)%cols
			work := mkbuf(3, float64(me))
			c.Bcast(0, mkbuf(8, 6))
			c.Barrier()
			for cyc := 0; cyc < w.cycles; cyc++ {
				// Descend: relax + restrict per level.
				for lvl := 0; lvl < w.levels; lvl++ {
					shrink := 1 << lvl
					halo := 8 * w.n * w.n / cols / shrink
					if halo < 64 {
						halo = 64
					}
					c.Compute(w.flops * pointsPerProc / float64(procs) / float64(shrink*shrink))
					c.SendrecvN(east, 40+lvl, halo, west, 40+lvl)
					c.SendrecvN(south, 48+lvl, halo, north, 48+lvl)
				}
				// Coarsest-level solve under a reduction.
				c.Allreduce([]float64{work[0]}, mpi.Sum)
				// Ascend: interpolate + relax per level.
				for lvl := w.levels - 1; lvl >= 0; lvl-- {
					shrink := 1 << lvl
					halo := 8 * w.n * w.n / cols / shrink
					if halo < 64 {
						halo = 64
					}
					c.SendrecvN(west, 56+lvl, halo, east, 56+lvl)
					c.Compute(w.flops * pointsPerProc / float64(procs) / float64(shrink*shrink) / 2)
				}
				// CG acceleration dot products.
				c.Allreduce([]float64{work[1], work[2]}, mpi.Sum)
			}
		},
	}, nil
}
