package apps

import (
	"fmt"

	"pas2p/internal/mpi"
)

// The remaining NPB kernels, EP and IS, are not part of the paper's
// evaluation but stress two interesting corners of PAS2P: EP has
// almost no communication events (the degenerate low-repetitiveness
// case §6 discusses), and IS is dominated by bucketed all-to-all
// exchanges with data-dependent volumes.

type epParams struct {
	logSamples int // log2 of random pairs generated
	blocks     int // compute blocks (events only at block ends)
}

var epWorkloads = map[string]epParams{
	"classA": {logSamples: 28, blocks: 4},
	"classB": {logSamples: 30, blocks: 4},
	"classC": {logSamples: 32, blocks: 6},
	"classD": {logSamples: 36, blocks: 8},
}

type isParams struct {
	keysPerProc int
	iters       int
}

var isWorkloads = map[string]isParams{
	"classA": {keysPerProc: 1 << 17, iters: 10},
	"classB": {keysPerProc: 1 << 19, iters: 10},
	"classC": {keysPerProc: 1 << 21, iters: 10},
	"classD": {keysPerProc: 1 << 23, iters: 10},
}

func init() {
	register(&Spec{
		Name:              "ep",
		Workloads:         []string{"classA", "classB", "classC", "classD"},
		DefaultWorkload:   "classC",
		StateBytesPerRank: 4 << 20,
		Make:              makeEP,
	})
	register(&Spec{
		Name:              "is",
		Workloads:         []string{"classA", "classB", "classC", "classD"},
		DefaultWorkload:   "classC",
		StateBytesPerRank: 64 << 20,
		Make:              makeIS,
	})
}

// makeEP builds the embarrassingly parallel kernel: long independent
// compute blocks with a single pair of reductions at the end. PAS2P
// finds essentially one phase of weight ~blocks; the signature saves
// little, exactly like the paper's low-repetitiveness cases.
func makeEP(procs int, workload string) (mpi.App, error) {
	w, err := pickWorkload("ep", workload, epWorkloads)
	if err != nil {
		return mpi.App{}, err
	}
	if procs < 2 {
		return mpi.App{}, fmt.Errorf("apps: ep needs at least 2 processes")
	}
	// ~90 flops per random pair (NPB EP's Gaussian rejection loop).
	totalFlops := 90 * float64(int64(1)<<uint(w.logSamples))
	blockFlops := totalFlops / float64(procs) / float64(w.blocks)
	return mpi.App{
		Name:  "ep",
		Procs: procs,
		Body: func(c *mpi.Comm) {
			work := mkbuf(10, float64(c.Rank()))
			c.Bcast(0, mkbuf(4, 10))
			for b := 0; b < w.blocks; b++ {
				c.Compute(blockFlops)
				// Progress heartbeat so phases are observable at all.
				c.Allreduce([]float64{work[0]}, mpi.Sum)
			}
			// Final counts (sx, sy, annulus counts).
			c.Allreduce([]float64{work[0], work[1]}, mpi.Sum)
			c.Allreduce(work[:10], mpi.Sum)
		},
	}, nil
}

// makeIS builds the integer-sort kernel: per iteration a local bucket
// count, an allreduce of bucket sizes, the big all-to-all key
// redistribution, and a local sort.
func makeIS(procs int, workload string) (mpi.App, error) {
	w, err := pickWorkload("is", workload, isWorkloads)
	if err != nil {
		return mpi.App{}, err
	}
	if procs < 2 {
		return mpi.App{}, fmt.Errorf("apps: is needs at least 2 processes")
	}
	keyBytes := 4 * w.keysPerProc / procs // keys sent per destination
	if keyBytes < 8 {
		keyBytes = 8
	}
	// Bucketing + local sort, a few tens of ops per key.
	flops := 60 * float64(w.keysPerProc)
	return mpi.App{
		Name:  "is",
		Procs: procs,
		Body: func(c *mpi.Comm) {
			n := c.Size()
			work := mkbuf(2*n, float64(c.Rank()))
			c.Bcast(0, mkbuf(4, 11))
			c.Barrier()
			for it := 0; it < w.iters; it++ {
				// Local bucket counting.
				c.Compute(flops * 0.3)
				// Bucket-size exchange.
				c.Allreduce(work[:n], mpi.Sum)
				// Key redistribution.
				work = c.AlltoallSized(work, keyBytes)
				// Local ranking.
				c.Compute(flops * 0.7)
			}
			// Full verification at the end.
			c.Allreduce([]float64{work[0]}, mpi.Sum)
		},
	}, nil
}
