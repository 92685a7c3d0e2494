package logical

import (
	"fmt"
	"testing"

	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/trace"
)

func benchTrace(b *testing.B, procs, iters int) *trace.Trace {
	b.Helper()
	d, err := machine.NewDeployment(machine.ClusterC(), procs, machine.MapBlock)
	if err != nil {
		b.Fatal(err)
	}
	res, err := mpi.Run(mpi.App{Name: "bench", Procs: procs, Body: func(c *mpi.Comm) {
		n := c.Size()
		for i := 0; i < iters; i++ {
			c.Compute(1e4)
			c.SendrecvN((c.Rank()+1)%n, 0, 1024, (c.Rank()+n-1)%n, 0)
			c.Allreduce([]float64{1}, mpi.Sum)
		}
	}}, mpi.RunConfig{Deployment: d, Trace: true})
	if err != nil {
		b.Fatal(err)
	}
	return res.Trace
}

// BenchmarkOrderPAS2P measures the §3.2 ordering over ring-plus-
// allreduce traces of 32 ranks (~10k events) and 128 ranks (~38k
// events), the width perfbench's predict workload orders at.
func BenchmarkOrderPAS2P(b *testing.B) {
	for _, procs := range []int{32, 128} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			tr := benchTrace(b, procs, 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Order(tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(tr.Events)), "events")
		})
	}
}

// BenchmarkOrderLamport measures the baseline ordering on the same
// trace.
func BenchmarkOrderLamport(b *testing.B) {
	tr := benchTrace(b, 32, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OrderLamport(tr); err != nil {
			b.Fatal(err)
		}
	}
}
