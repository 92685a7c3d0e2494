package apps

import (
	"fmt"
	"strconv"
	"strings"

	"pas2p/internal/mpi"
)

// The master/worker application is §6's worst case for PAS2P: the
// master scatters one job per worker, workers compute and return one
// result, and nothing repeats — the analysis finds a dominant phase of
// weight 1, so executing the signature costs about as much as running
// the whole application. Workloads: "roundsN" runs the job cycle N
// times (rounds1 is the paper's degenerate case).

type mwParams struct {
	rounds   int
	jobBytes int
	flops    float64
}

func init() {
	register(&Spec{
		Name:              "masterworker",
		Workloads:         []string{"rounds1", "rounds5", "rounds50"},
		DefaultWorkload:   "rounds1",
		StateBytesPerRank: 8 << 20,
		Make:              makeMasterWorker,
	})
}

func parseMWWorkload(workload string) (mwParams, error) {
	w := mwParams{rounds: 1, jobBytes: 1 << 16, flops: 2e10}
	if !strings.HasPrefix(workload, "rounds") {
		return w, fmt.Errorf("apps: masterworker: unknown workload %q (want roundsN)", workload)
	}
	n, err := strconv.Atoi(strings.TrimPrefix(workload, "rounds"))
	if err != nil || n <= 0 {
		return w, fmt.Errorf("apps: masterworker: bad round count in %q", workload)
	}
	w.rounds = n
	return w, nil
}

func makeMasterWorker(procs int, workload string) (mpi.App, error) {
	w, err := parseMWWorkload(workload)
	if err != nil {
		return mpi.App{}, err
	}
	if procs < 2 {
		return mpi.App{}, fmt.Errorf("apps: masterworker needs at least 2 processes")
	}
	return mpi.App{
		Name:  "masterworker",
		Procs: procs,
		Body: func(c *mpi.Comm) {
			n := c.Size()
			if c.Rank() == 0 {
				for round := 0; round < w.rounds; round++ {
					for s := 1; s < n; s++ {
						c.SendN(s, 90, w.jobBytes)
					}
					// Results arrive in completion order.
					for s := 1; s < n; s++ {
						c.RecvN(mpi.AnySource, 91)
					}
				}
			} else {
				for round := 0; round < w.rounds; round++ {
					c.RecvN(0, 90)
					// Jobs are slightly imbalanced, like real farms.
					c.Compute(w.flops * (1 + 0.1*float64(c.Rank()%5)))
					c.SendN(0, 91, w.jobBytes/4)
				}
			}
		},
	}, nil
}
