package mpi

import (
	"testing"
)

// ringStep is one iteration of a traced loop: a SendrecvN around the
// ring and an Allreduce of data.
func ringStep(c *Comm, data []float64) {
	right, left := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
	c.SendrecvN(right, 0, 64, left, 0)
	c.Allreduce(data, Sum)
}

// TestTracedLoopAllocs pins what the per-operation path allocates in a
// traced run. The marginal count per iteration, (allocs(2N) −
// allocs(N)) / N, leaves out what a run costs to start and finish.
// Without data, a SendrecvN and an Allreduce allocate nothing: Wait,
// the engine's collective state, the shared result and the recorded
// events are all reused (the recorder's chunks are amortised well
// under the bound). With data, each member pays for its payload copy,
// the copy's boxing into the engine's payload, and its own result,
// and the operation for the engine's payload table: nothing more.
func TestTracedLoopAllocs(t *testing.T) {
	const procs, n = 4, 2000
	cases := []struct {
		name string
		data []float64
		max  float64
	}{
		{"no-data", nil, 0.05},
		{"one-value", []float64{1}, 3*procs + 1 + 0.05},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(iters int) float64 {
				return testing.AllocsPerRun(1, func() {
					runApp(t, procs, func(c *Comm) {
						for i := 0; i < iters; i++ {
							ringStep(c, tc.data)
						}
					}, RunConfig{Trace: true, EventOverhead: PAS2PEventOverhead})
				})
			}
			per := (allocs(2*n) - allocs(n)) / n
			t.Logf("%.3f allocations per iteration", per)
			if per >= tc.max {
				t.Errorf("%.3f allocations per iteration, want below %v", per, tc.max)
			}
		})
	}
}

// benchChunk bounds the steps of one benchmark run, so a traced run's
// events stay a few MiB however large b.N grows.
const benchChunk = 256

// benchTraced times one step of body on every rank of a traced 128-rank
// run, as the paper's instrumented runs make it. b.N steps run as
// consecutive runs of at most benchChunk steps, so each step also
// carries its share of starting a run and assembling its trace.
func benchTraced(b *testing.B, body func(c *Comm)) {
	const procs = 128
	dep := deploy(b, procs)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += benchChunk {
		steps := min(benchChunk, b.N-done)
		app := App{Name: "bench", Procs: procs, Body: func(c *Comm) {
			for i := 0; i < steps; i++ {
				body(c)
			}
		}}
		if _, err := Run(app, RunConfig{Deployment: dep, Trace: true, EventOverhead: PAS2PEventOverhead}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracedSendrecv: one ring SendrecvN on every rank.
func BenchmarkTracedSendrecv(b *testing.B) {
	benchTraced(b, func(c *Comm) {
		c.SendrecvN((c.Rank()+1)%c.Size(), 0, 1024, (c.Rank()+c.Size()-1)%c.Size(), 0)
	})
}

// BenchmarkTracedAllreduce: one two-value Allreduce over all ranks.
func BenchmarkTracedAllreduce(b *testing.B) {
	benchTraced(b, func(c *Comm) {
		c.Allreduce([]float64{float64(c.Rank()), 1}, Sum)
	})
}
