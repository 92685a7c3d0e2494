package phase

import (
	"fmt"
	"testing"

	"pas2p/internal/apps"
	"pas2p/internal/logical"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
)

func benchLogical(b *testing.B, procs, iters int) *logical.Logical {
	b.Helper()
	d, err := machine.NewDeployment(machine.ClusterC(), procs, machine.MapBlock)
	if err != nil {
		b.Fatal(err)
	}
	res, err := mpi.Run(mpi.App{Name: "bench", Procs: procs, Body: func(c *mpi.Comm) {
		n := c.Size()
		if c.Rank() == 0 {
			for s := 1; s < n; s++ {
				c.SendN(s, 99, 4096)
			}
		} else {
			c.RecvN(0, 99)
		}
		c.Barrier()
		for i := 0; i < iters; i++ {
			c.Compute(1e4)
			c.SendrecvN((c.Rank()+1)%n, 0, 1024, (c.Rank()+n-1)%n, 0)
			c.Allreduce([]float64{1}, mpi.Sum)
		}
	}}, mpi.RunConfig{Deployment: d, Trace: true})
	if err != nil {
		b.Fatal(err)
	}
	l, err := logical.Order(res.Recording.Trace())
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkExtract measures §3.3 phase extraction on a 32-rank trace.
func BenchmarkExtract(b *testing.B) {
	l := benchLogical(b, 32, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := Extract(l, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(a.Phases)), "phases")
		}
	}
}

// benchAppLogical traces a registered workload on cluster C and
// orders it with the PAS2P ordering.
func benchAppLogical(b *testing.B, name, wl string, procs int) *logical.Logical {
	b.Helper()
	app, err := apps.Make(name, procs, wl)
	if err != nil {
		b.Fatal(err)
	}
	d, err := machine.NewDeployment(machine.ClusterC(), procs, machine.MapBlock)
	if err != nil {
		b.Fatal(err)
	}
	res, err := mpi.Run(app, mpi.RunConfig{Deployment: d, Trace: true})
	if err != nil {
		b.Fatal(err)
	}
	l, err := logical.Order(res.Recording.Trace())
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkExtractApps compares the extraction paths on real workload
// traces: "seed" is the pre-index reference scan, "indexed" the
// fingerprint-indexed matcher.
// lu/classD at 64 ranks is the largest trace internal/apps produces
// (897k events over 40k ticks); pop/synthetic240 is the densest. The
// golden tests prove both paths return the identical Analysis.
func BenchmarkExtractApps(b *testing.B) {
	cases := []struct {
		name, wl string
		procs    int
	}{
		{"moldy", "tip4p", 64},
		{"sweep3d", "sweep.250", 64},
		{"lu", "classD", 64},
		{"pop", "synthetic240", 64},
		{"masterworker", "rounds50", 64},
		{"smg2000", "-n 200 solver 3", 64},
	}
	modes := []struct {
		mode    string
		extract func(*logical.Logical, Config) (*Analysis, error)
	}{
		{"seed", extractSeed},
		{"indexed", Extract},
	}
	for _, c := range cases {
		l := benchAppLogical(b, c.name, c.wl, c.procs)
		for _, m := range modes {
			b.Run(fmt.Sprintf("%s/%s", c.name, m.mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					a, err := m.extract(l, DefaultConfig())
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(len(a.Phases)), "phases")
						b.ReportMetric(float64(l.NumTicks()), "ticks")
					}
				}
			})
		}
	}
}

// BenchmarkBuildTable measures phase-table construction.
func BenchmarkBuildTable(b *testing.B) {
	l := benchLogical(b, 32, 100)
	a, err := Extract(l, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.BuildTable(1); err != nil {
			b.Fatal(err)
		}
	}
}
