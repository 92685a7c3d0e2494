package phase

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pas2p/internal/apps"
	"pas2p/internal/logical"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/trace"
)

// assertAnalysesEqual fails unless the two analyses carry the same
// phases (IDs, spans, cells), weights, occurrence windows and relevant
// set.
func assertAnalysesEqual(t *testing.T, label string, want, got *Analysis) {
	t.Helper()
	if len(want.Phases) != len(got.Phases) {
		t.Fatalf("%s: %d phases, reference has %d", label, len(got.Phases), len(want.Phases))
	}
	for i, wp := range want.Phases {
		gp := got.Phases[i]
		if wp.ID != gp.ID || wp.TickLen != gp.TickLen || wp.Events != gp.Events {
			t.Fatalf("%s: phase %d header (ID=%d len=%d ev=%d) vs reference (ID=%d len=%d ev=%d)",
				label, i, gp.ID, gp.TickLen, gp.Events, wp.ID, wp.TickLen, wp.Events)
		}
		if !reflect.DeepEqual(wp.Occurrences, gp.Occurrences) {
			t.Fatalf("%s: phase %d occurrences differ:\n got %v\nwant %v", label, wp.ID, gp.Occurrences, wp.Occurrences)
		}
		if !reflect.DeepEqual(wp.Cells, gp.Cells) {
			t.Fatalf("%s: phase %d behaviour matrix differs", label, wp.ID)
		}
	}
	wrel, grel := want.Relevant(), got.Relevant()
	if len(wrel) != len(grel) {
		t.Fatalf("%s: %d relevant phases, reference has %d", label, len(grel), len(wrel))
	}
	for i := range wrel {
		if wrel[i].ID != grel[i].ID {
			t.Fatalf("%s: relevant set diverges at %d: phase %d vs %d", label, i, grel[i].ID, wrel[i].ID)
		}
	}
}

// assertIndexedMatchesSeed extracts a logical trace with the
// fingerprint-indexed matcher and checks the analysis against the
// pre-index reference scan (extractSeed).
func assertIndexedMatchesSeed(t *testing.T, label string, l *logical.Logical) {
	t.Helper()
	ref, err := extractSeed(l, DefaultConfig())
	if err != nil {
		t.Fatalf("%s: seed extraction: %v", label, err)
	}
	if err := ref.Validate(); err != nil {
		t.Fatalf("%s: seed analysis invalid: %v", label, err)
	}
	an, err := Extract(l, DefaultConfig())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertAnalysesEqual(t, label+"/indexed", ref, an)
}

// TestGoldenIndexedMatchesSeed proves the fingerprint-indexed matcher
// (sequential and parallel) produces the identical Analysis as the
// pre-index scan on every registered workload, under both the PAS2P
// ordering and the Lamport baseline.
func TestGoldenIndexedMatchesSeed(t *testing.T) {
	d, err := machine.NewDeployment(machine.ClusterA(), 16, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range apps.Names() {
		wl, ok := goldenWorkloads[name]
		if !ok {
			t.Errorf("app %q has no golden workload registered; add it", name)
			continue
		}
		name, wl := name, wl
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			app, err := apps.Make(name, 16, wl)
			if err != nil {
				t.Fatal(err)
			}
			res, err := mpi.Run(app, mpi.RunConfig{Deployment: d, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Recording.Trace()
			for ord, order := range map[string]func(*trace.Trace) (*logical.Logical, error){
				"pas2p": logical.Order, "lamport": logical.OrderLamport,
			} {
				l, err := order(tr)
				if err != nil {
					t.Fatalf("%s ordering: %v", ord, err)
				}
				assertIndexedMatchesSeed(t, name+"/"+ord, l)
			}
		})
	}
}

// genTrace runs a seeded random SPMD program (deadlock-free by
// construction: symmetric exchanges, collectives and master gathers)
// and returns its trace. The program is generated before the run so
// every rank replays the same deterministic op list.
func genTrace(t testing.TB, seed int64, procs int) *trace.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type op struct {
		kind  int
		tag   int
		bytes int
		flops float64
	}
	nops := 8 + rng.Intn(25)
	ops := make([]op, nops)
	for i := range ops {
		ops[i] = op{
			kind:  rng.Intn(5),
			tag:   rng.Intn(4),
			bytes: 32 << rng.Intn(9),
			flops: float64(1+rng.Intn(40)) * 1e4,
		}
	}
	repeats := 2 + rng.Intn(5)
	app := mpi.App{Name: fmt.Sprintf("fuzz%d", seed), Procs: procs, Body: func(c *mpi.Comm) {
		n, me := c.Size(), c.Rank()
		for r := 0; r < repeats; r++ {
			for _, o := range ops {
				c.Compute(o.flops)
				switch o.kind {
				case 0:
					c.SendrecvN((me+1)%n, o.tag, o.bytes, (me+n-1)%n, o.tag)
				case 1:
					c.Allreduce([]float64{float64(me)}, mpi.Sum)
				case 2:
					c.Barrier()
				case 3:
					if me == 0 {
						for s := 1; s < n; s++ {
							c.RecvN(mpi.AnySource, o.tag)
						}
					} else {
						c.SendN(0, o.tag, o.bytes)
					}
				case 4:
					peer := me ^ 1
					if peer < n {
						c.SendrecvN(peer, o.tag, o.bytes, peer, o.tag)
					}
				}
			}
		}
	}}
	d, err := machine.NewDeployment(machine.ClusterB(), procs, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpi.Run(app, mpi.RunConfig{Deployment: d, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Recording.Trace()
}

// TestGoldenRandomTraces is the fuzz-style property test: across
// random programs, orderings and similarity thresholds, the indexed
// and parallel matchers must reproduce the reference analysis exactly.
func TestGoldenRandomTraces(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			tr := genTrace(t, seed, 8)
			for ord, order := range map[string]func(*trace.Trace) (*logical.Logical, error){
				"pas2p": logical.Order, "lamport": logical.OrderLamport,
			} {
				l, err := order(tr)
				if err != nil {
					t.Fatalf("%s: %v", ord, err)
				}
				assertIndexedMatchesSeed(t, ord, l)

				// Also sweep a tighter and a looser threshold set, which
				// shifts which candidates the index may prune.
				for _, ev := range []float64{0.6, 0.95} {
					seedCfg := DefaultConfig()
					seedCfg.EventSimilarity = ev
					seedCfg.ComputeSimilarity = 0.7
					ref, err := extractSeed(l, seedCfg)
					if err != nil {
						t.Fatal(err)
					}
					an, err := Extract(l, seedCfg)
					if err != nil {
						t.Fatal(err)
					}
					assertAnalysesEqual(t, fmt.Sprintf("%s/ev=%.2f", ord, ev), ref, an)
				}
			}
		})
	}
}
