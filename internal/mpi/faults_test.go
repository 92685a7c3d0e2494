package mpi

import (
	"testing"

	"pas2p/internal/faults"
)

func newInj(t *testing.T, cfg faults.Config) *faults.Injector {
	t.Helper()
	inj, err := faults.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func exchangeBody(iters int) func(c *Comm) {
	return func(c *Comm) {
		n := c.Size()
		for i := 0; i < iters; i++ {
			c.Compute(1e4)
			c.SendrecvN((c.Rank()+1)%n, 0, 4096, (c.Rank()+n-1)%n, 0)
			c.Allreduce([]float64{1}, Sum)
		}
	}
}

// TestZeroConfigInjectorIsInert: an injector with every knob at zero
// must leave the run bit-identical to the nil fast path.
func TestZeroConfigInjectorIsInert(t *testing.T) {
	body := exchangeBody(20)
	clean := runApp(t, 4, body, RunConfig{Trace: true})
	inert := runApp(t, 4, body, RunConfig{Trace: true, Faults: newInj(t, faults.Config{Seed: 9})})
	if clean.Elapsed != inert.Elapsed {
		t.Fatalf("zero-config injector changed Elapsed: %v vs %v", inert.Elapsed, clean.Elapsed)
	}
	cleanEvs, inertEvs := clean.Recording.Trace().Events, inert.Recording.Trace().Events
	if len(cleanEvs) != len(inertEvs) {
		t.Fatal("zero-config injector changed the trace")
	}
	for i := range cleanEvs {
		if cleanEvs[i] != inertEvs[i] {
			t.Fatalf("event %d differs under zero-config injector", i)
		}
	}
}

// TestMessageFaultsSlowTheRun: certain loss forces every point-to-point
// message through retransmission, so the run must take strictly longer
// — and by at least one full RTO.
func TestMessageFaultsSlowTheRun(t *testing.T) {
	body := exchangeBody(10)
	clean := runApp(t, 4, body, RunConfig{})
	inj := newInj(t, faults.Config{Seed: 1, LossRate: 1})
	faulted := runApp(t, 4, body, RunConfig{Faults: inj})
	rep := inj.Report()
	if rep.MsgLost == 0 {
		t.Fatal("certain loss lost nothing")
	}
	if got := faulted.Elapsed - clean.Elapsed; got < inj.Config().RTO {
		t.Fatalf("loss=1 added only %v, want at least one RTO (%v)", got, inj.Config().RTO)
	}
}

// TestMessageFaultsDeterministic: two runs with independently built
// injectors from the same seed must agree on Elapsed and on the fault
// report; a different seed must disagree on the schedule.
func TestMessageFaultsDeterministic(t *testing.T) {
	body := exchangeBody(15)
	cfg := faults.Config{Seed: 4, LossRate: 0.3, DupRate: 0.2, DelayRate: 0.5, ComputeJitter: 0.02}
	i1, i2 := newInj(t, cfg), newInj(t, cfg)
	r1 := runApp(t, 4, body, RunConfig{Faults: i1})
	r2 := runApp(t, 4, body, RunConfig{Faults: i2})
	if r1.Elapsed != r2.Elapsed {
		t.Fatalf("same seed, different Elapsed: %v vs %v", r1.Elapsed, r2.Elapsed)
	}
	if rep1, rep2 := i1.Report(), i2.Report(); rep1 != rep2 {
		t.Fatalf("same seed, different schedules:\n%+v\n%+v", rep1, rep2)
	}
	cfg.Seed = 5
	i3 := newInj(t, cfg)
	runApp(t, 4, body, RunConfig{Faults: i3})
	if i3.Report() == i1.Report() {
		t.Fatal("different seed reproduced the identical schedule")
	}
}

// TestFaultsPreserveLogicalStructure: faults move physical clocks only;
// the event sequence (kinds, peers, payloads, relations) every rank
// records must be identical to the fault-free run.
func TestFaultsPreserveLogicalStructure(t *testing.T) {
	body := exchangeBody(12)
	clean := runApp(t, 4, body, RunConfig{Trace: true})
	inj := newInj(t, faults.Config{Seed: 8, LossRate: 0.4, DupRate: 0.2, DelayRate: 0.6, ComputeJitter: 0.05})
	faulted := runApp(t, 4, body, RunConfig{Trace: true, Faults: inj})
	if inj.Report().Injected == 0 {
		t.Fatal("schedule injected nothing")
	}
	cleanEvs, faultedEvs := clean.Recording.Trace().Events, faulted.Recording.Trace().Events
	if len(cleanEvs) != len(faultedEvs) {
		t.Fatalf("event counts differ: %d vs %d", len(cleanEvs), len(faultedEvs))
	}
	for i := range cleanEvs {
		a, b := cleanEvs[i], faultedEvs[i]
		if a.Kind != b.Kind || a.Process != b.Process || a.Peer != b.Peer ||
			a.Tag != b.Tag || a.Size != b.Size || a.RelA != b.RelA || a.RelB != b.RelB {
			t.Fatalf("event %d structure differs under faults:\n%+v\n%+v", i, a, b)
		}
	}
}
