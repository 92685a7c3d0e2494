package logical

import (
	"bytes"
	"fmt"
	"io"
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
	return res.Recording.Trace()
}

// BenchmarkOrderPAS2P measures the §3.2 ordering over ring-plus-
// allreduce traces of 32 ranks (~10k events) and 128 ranks (~38k
// events), the width perfbench's predict workload orders at, whose
// every tick is full width. lu classA at 128 ranks is a wavefront with
// sparse ticks and many retried receives; it is ordered in memory, as
// Order does, and over the rank streams of its v2 encoding, as
// phase.Analyze reads a v2 tracefile.
func BenchmarkOrderPAS2P(b *testing.B) {
	for _, procs := range []int{32, 128} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			benchOrder(b, benchTrace(b, procs, 100))
		})
	}
	var lu *trace.Trace
	luTrace := func(b *testing.B) *trace.Trace {
		if lu == nil {
			lu = appTrace(b, "lu", 128, "classA")
		}
		return lu
	}
	b.Run("lu/procs=128", func(b *testing.B) { benchOrder(b, luTrace(b)) })
	b.Run("lu/procs=128/file", func(b *testing.B) {
		tr := luTrace(b)
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			br, err := trace.NewBlockReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			rs, err := br.RankStreams()
			if err != nil {
				b.Fatal(err)
			}
			r, err := StreamOrder(rs)
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := r.Next(); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(tr.Events)), "events")
	})
}

func benchOrder(b *testing.B, tr *trace.Trace) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Order(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Events)), "events")
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
