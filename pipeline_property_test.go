// Whole-pipeline property tests: a seeded generator produces random
// (but deadlock-free by construction) SPMD applications, and every one
// must survive the full PAS2P pipeline with its invariants intact —
// deterministic execution, valid traces and models, machine-independent
// logical structure, and a same-machine prediction close to the truth.
package pas2p_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pas2p"
	"pas2p/internal/vtime"
)

// genApp builds a random iterative SPMD program from a seed. Segments
// draw from symmetric exchanges, collectives and master gathers, so
// the program can never deadlock; compute blocks vary per segment.
func genApp(seed int64, procs int) pas2p.App {
	rng := rand.New(rand.NewSource(seed))
	type segment struct {
		kind    int
		repeats int
		flops   float64
		bytes   int
		tag     int
	}
	nseg := 3 + rng.Intn(4)
	segs := make([]segment, nseg)
	for i := range segs {
		segs[i] = segment{
			kind:    rng.Intn(6),
			repeats: 2 + rng.Intn(8),
			flops:   float64(1+rng.Intn(50)) * 1e5,
			bytes:   64 << rng.Intn(8),
			tag:     i + 1,
		}
	}
	outer := 2 + rng.Intn(3)
	return pas2p.App{
		Name:  fmt.Sprintf("fuzz-%d", seed),
		Procs: procs,
		Body: func(c *pas2p.Comm) {
			n := c.Size()
			me := c.Rank()
			for o := 0; o < outer; o++ {
				for _, s := range segs {
					for r := 0; r < s.repeats; r++ {
						c.Compute(s.flops)
						switch s.kind {
						case 0: // ring exchange
							c.SendrecvN((me+1)%n, s.tag, s.bytes, (me+n-1)%n, s.tag)
						case 1: // pairwise exchange
							peer := me ^ 1
							if peer < n {
								c.SendrecvN(peer, s.tag, s.bytes, peer, s.tag)
							}
						case 2:
							c.Allreduce([]float64{float64(me)}, pas2p.Sum)
						case 3:
							c.Bcast(0, []float64{1, 2, 3})
						case 4: // master gather, explicit sources
							if me == 0 {
								for src := 1; src < n; src++ {
									c.RecvN(src, s.tag)
								}
							} else {
								c.SendN(0, s.tag, s.bytes)
							}
						default:
							c.Barrier()
						}
					}
				}
			}
		},
	}
}

func TestPipelinePropertyRandomApps(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is slow")
	}
	clusterA := pas2p.ClusterA()
	clusterC := pas2p.ClusterC()
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			procs := []int{4, 8, 16}[seed%3]
			app := genApp(seed, procs)
			dA, err := pas2p.NewDeployment(clusterA, procs, pas2p.MapBlock)
			if err != nil {
				t.Fatal(err)
			}
			dC, err := pas2p.NewDeployment(clusterC, procs, pas2p.MapBlock)
			if err != nil {
				t.Fatal(err)
			}

			// 1. Deterministic execution.
			r1, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: dA, Trace: true})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			r2, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: dA, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if r1.Elapsed != r2.Elapsed || len(r1.Trace.Events) != len(r2.Trace.Events) {
				t.Fatal("nondeterministic execution")
			}

			// 2. Trace and model invariants.
			if err := r1.Trace.Validate(); err != nil {
				t.Fatalf("trace: %v", err)
			}
			lA, err := pas2p.OrderLogical(r1.Trace)
			if err != nil {
				t.Fatalf("order: %v", err)
			}
			if err := lA.Validate(); err != nil {
				t.Fatalf("logical: %v", err)
			}

			// 3. Machine independence: the same program traced on a
			// different cluster yields the same logical structure
			// (explicit sources only, so matching is fixed).
			rc, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: dC, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			lC, err := pas2p.OrderLogical(rc.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if lA.NumTicks() != lC.NumTicks() {
				t.Fatalf("logical trace machine-dependent: %d vs %d ticks", lA.NumTicks(), lC.NumTicks())
			}

			// 4. Phases tile the run and Eq. 1 over all phases
			// reconstructs the base AET.
			an, tb, err := pas2p.Analyze(r1.Trace, pas2p.DefaultPhaseConfig(), 1)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			if err := an.Validate(); err != nil {
				t.Fatalf("analysis: %v", err)
			}
			pet := tb.PredictedAET(false).Seconds()
			aet := r1.Elapsed.Seconds()
			if e := absP(pet-aet) / aet; e > 0.05 {
				t.Errorf("Eq.1 over all phases off by %.1f%%", 100*e)
			}

			// 5. Same-machine signature prediction lands near truth.
			opts := pas2p.DefaultSignatureOptions()
			opts.Checkpoint.SnapshotBase = 100 * vtime.Microsecond
			opts.Checkpoint.RestartBase = 150 * vtime.Microsecond
			opts.StateBytesPerRank = 1 << 20
			sig, _, err := pas2p.BuildSignature(app, tb, dA, opts)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			res, err := sig.Execute(dA)
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			plain, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: dA})
			if err != nil {
				t.Fatal(err)
			}
			trueAET := plain.Elapsed.Seconds()
			if e := absP(pas2p.Seconds(res.PET)-trueAET) / trueAET; e > 0.30 {
				t.Errorf("signature PETE %.1f%% (PET %.3fs, AET %.3fs)",
					100*e, pas2p.Seconds(res.PET), trueAET)
			}
		})
	}
}

func absP(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestPipelineWithRealismFlags re-runs a few random apps with the NIC
// contention and algorithmic-collectives models enabled end to end:
// the pipeline's invariants and prediction quality must survive the
// richer timing models.
func TestPipelineWithRealismFlags(t *testing.T) {
	for seed := int64(20); seed <= 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			procs := 8
			app := genApp(seed, procs)
			var deps [2]*pas2p.Deployment
			for i, cl := range []*pas2p.Cluster{pas2p.ClusterA(), pas2p.ClusterB()} {
				cl.NICContention, cl.AlgorithmicCollectives = true, true
				d, err := pas2p.NewDeployment(cl, procs, pas2p.MapBlock)
				if err != nil {
					t.Fatal(err)
				}
				deps[i] = d
			}
			out, err := pas2p.Predict(pas2p.Experiment{App: app, Base: deps[0], Target: deps[1]})
			if err != nil {
				t.Fatal(err)
			}
			if out.PETEPercent > 30 {
				t.Errorf("PETE %.2f%% under realism flags", out.PETEPercent)
			}
			if out.SET <= 0 || out.PET <= 0 {
				t.Error("degenerate outputs")
			}
		})
	}
}
