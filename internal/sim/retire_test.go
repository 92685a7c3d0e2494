package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"pas2p/internal/faults"
	"pas2p/internal/machine"
	"pas2p/internal/network"
	"pas2p/internal/vtime"
)

// retireBodies are the program shapes of the early-stop property. Each
// calls step before every operation, so a rank can leave costed mode
// at any of its event indices.
var retireBodies = []struct {
	name  string
	ranks int
	body  func(p *Proc, step func())
}{
	{"ring", 8, func(p *Proc, step func()) {
		n, r := p.Size(), p.Rank()
		for round := 0; round < 6; round++ {
			step()
			p.Advance(vtime.Duration(1+(r+round)%5) * vtime.Microsecond)
			size := 64
			if (r+round)%3 == 0 {
				size = 1 << 20 // rendezvous
			}
			step()
			id := p.Isend((r+1)%n, round, size, nil)
			step()
			p.Recv((r+n-1)%n, round)
			step()
			p.Wait(id)
		}
	}},
	{"wavefront", 6, func(p *Proc, step func()) {
		n, r := p.Size(), p.Rank()
		for sweep := 0; sweep < 5; sweep++ {
			if r > 0 {
				step()
				p.Recv(r-1, sweep)
			}
			step()
			p.Advance(vtime.Duration(3+r%2) * vtime.Microsecond)
			if r < n-1 {
				step()
				p.Send(r+1, sweep, 128<<(sweep%2*14), nil)
			}
		}
	}},
	{"wildcard", 8, func(p *Proc, step func()) {
		n, r := p.Size(), p.Rank()
		if r == 0 {
			for i := 0; i < 4*(n-1); i++ {
				step()
				w := p.Recv(AnySource, AnyTag).Src
				step()
				p.Advance(2 * vtime.Microsecond)
				step()
				p.Send(w, 0, 256, nil)
			}
			return
		}
		for i := 0; i < 4; i++ {
			step()
			p.Advance(vtime.Duration(r*7+i) * vtime.Microsecond)
			step()
			p.Send(0, i, 256, nil)
			step()
			p.Recv(0, 0)
		}
	}},
	{"collective", 8, func(p *Proc, step func()) {
		n, r := p.Size(), p.Rank()
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		evens := []int{0, 2, 4, 6}
		for round := 0; round < 4; round++ {
			step()
			p.Advance(vtime.Duration(1+r) * vtime.Microsecond)
			step()
			p.Collective(network.Allreduce, 0, all, 0, 1024, nil)
			if r%2 == 0 {
				step()
				p.Collective(network.Barrier, 1, evens, 0, 0, nil)
			}
			step()
			p.Collective(network.Barrier, 0, all, 0, 0, nil)
		}
	}},
	{"waitall", 8, func(p *Proc, step func()) {
		r := p.Rank()
		peer := r ^ 1
		for round := 0; round < 5; round++ {
			size := 512
			if round%2 == 1 {
				size = 2 << 20 // rendezvous
			}
			step()
			rid := p.Irecv(peer, round)
			step()
			p.Advance(vtime.Duration(1+3*(r%2)) * vtime.Microsecond)
			step()
			sid := p.Isend(peer, round, size, nil)
			step()
			p.Advance(vtime.Duration(2+r%3) * vtime.Microsecond)
			step()
			p.Wait(rid, sid)
		}
	}},
}

// retireRun runs body with each rank leaving costed mode before its
// at[rank]-th operation: for good through Retire when final is set,
// otherwise through a plain free-mode SetMode that the run must
// simulate to completion.
func retireRun(t *testing.T, cfg Config, body func(*Proc, func()), at []int, final bool) Result {
	t.Helper()
	cfg.Body = func(p *Proc) {
		n := 0
		body(p, func() {
			if n == at[p.Rank()] {
				if final {
					p.Retire()
				} else {
					p.SetMode(Mode{CommFree: true})
				}
			}
			n++
		})
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRetireMatchesFreeMode is the simulator-level exactness property
// of the early stop: with every rank retiring at a random event index
// (or not at all), the run's Finish equals, bit for bit, that of the same
// program switched to an ordinary free mode at the same indices and
// simulated to the end. Fault injection, NIC contention and
// algorithmic collectives vary across trials, and every shape must
// actually stop early in some trials.
func TestRetireMatchesFreeMode(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, b := range retireBodies {
		t.Run(b.name, func(t *testing.T) {
			// A first pass counts each rank's operations.
			ops := make([]int, b.ranks)
			run(t, b.ranks, func(p *Proc) { b.body(p, func() { ops[p.Rank()]++ }) })
			stopped := 0
			for trial := 0; trial < 150; trial++ {
				cl := machine.ClusterA()
				cl.NICContention = trial%2 == 1
				cl.AlgorithmicCollectives = trial%3 == 1
				d, err := machine.NewDeployment(cl, b.ranks, machine.MapBlock)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{Deployment: d, Name: b.name}
				at := make([]int, b.ranks)
				for r := range at {
					at[r] = rng.Intn(ops[r] + 1) // ops[r]: never retires
				}
				if trial%4 == 3 {
					cfg.Faults = mustInjector(t, faults.Config{Seed: int64(trial),
						LossRate: 0.1, DelayRate: 0.2, MaxDelay: 30 * vtime.Microsecond,
						ComputeJitter: 0.2})
				}
				want := retireRun(t, cfg, b.body, at, false)
				if cfg.Faults != nil {
					cfg.Faults = mustInjector(t, cfg.Faults.Config())
				}
				got := retireRun(t, cfg, b.body, at, true)
				if got.Finish != want.Finish {
					t.Fatalf("trial %d (retire at %v): Finish %d, run to completion %d",
						trial, at, int64(got.Finish), int64(want.Finish))
				}
				if got.Messages > want.Messages || got.Collectives > want.Collectives {
					t.Fatalf("trial %d: stopped run simulated more than the full run", trial)
				}
				if got.Messages < want.Messages || got.Collectives < want.Collectives {
					stopped++
				}
			}
			if stopped == 0 {
				t.Fatal("no trial stopped early")
			}
		})
	}
}

func mustInjector(t *testing.T, cfg faults.Config) *faults.Injector {
	t.Helper()
	inj, err := faults.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestRetireStopsAtLatestClock pins the case the early stop must wait
// out: a rank retires with a costed receive already matched but not
// yet waited on, whose completion lies past every clock. The stop may
// only come once that rank has waited, so Finish still includes the
// late arrival.
func TestRetireStopsAtLatestClock(t *testing.T) {
	body := func(retire func(p *Proc)) func(p *Proc) {
		return func(p *Proc) {
			if p.Rank() == 0 {
				id := p.Irecv(1, 0)
				retire(p)
				p.Recv(1, 1)
				p.Wait(id)
				return
			}
			p.Send(0, 0, 64, nil)
			retire(p)
			p.Send(0, 1, 64, nil)
			p.Advance(vtime.Second)
		}
	}
	free := run(t, 2, body(func(p *Proc) { p.SetMode(Mode{CommFree: true}) }))
	stopped := run(t, 2, body(func(p *Proc) { p.Retire() }))
	if stopped.Finish != free.Finish || free.Finish == 0 {
		t.Fatalf("Finish %v, run to completion %v", stopped.Finish, free.Finish)
	}
}

func TestSetModeAfterRetireFails(t *testing.T) {
	_, err := Run(Config{Deployment: testDeployment(t, 1), Name: "test", Body: func(p *Proc) {
		p.Retire()
		p.Retire() // idempotent
		p.SetMode(NormalMode)
	}})
	if err == nil || !strings.Contains(err.Error(), "SetMode after Retire") {
		t.Fatalf("err = %v, want SetMode after Retire", err)
	}
}

// TestSetModeRejectsNonFiniteScale: a NaN or infinite compute scale
// is an engine error, not a silently different clock.
func TestSetModeRejectsNonFiniteScale(t *testing.T) {
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := Run(Config{Deployment: testDeployment(t, 1), Name: "test", Body: func(p *Proc) {
			p.SetMode(Mode{ComputeScale: s})
			p.Advance(vtime.Millisecond)
		}})
		if err == nil || !strings.Contains(err.Error(), "non-finite compute scale") {
			t.Errorf("scale %v: err = %v, want non-finite compute scale", s, err)
		}
	}
}
