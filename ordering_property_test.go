// The ordering property behind §3.2: PAS2P's logical order is a
// function of the program alone, so physical perturbation cannot move
// an event to another tick; Lamport's order, which merges by physical
// exit time, can.
package pas2p_test

import (
	"fmt"
	"strings"
	"testing"

	"pas2p"
)

// orderingSpecs are the physical perturbations the ordering must be
// invariant under: delayed messages, jittered compute, and both.
var orderingSpecs = []string{"delay=0.2", "jitter=0.05", "delay=0.3,jitter=0.1"}

// firstTickDiff names the first tick where two tickShape fingerprints
// differ, or "" when they are equal.
func firstTickDiff(a, b string) string {
	ta, tb := strings.Split(a, "|"), strings.Split(b, "|")
	for i := range min(len(ta), len(tb)) {
		if ta[i] != tb[i] {
			return fmt.Sprintf("tick %d: %q vs %q", i, ta[i], tb[i])
		}
	}
	if len(ta) != len(tb) {
		return fmt.Sprintf("%d ticks vs %d", len(ta)-1, len(tb)-1)
	}
	return ""
}

// TestOrderingInvariantUnderPerturbation runs every registered app at
// its cheap workload on 8 ranks of cluster A under seeded delay and
// jitter, and compares each run's tick tables with the fault-free
// ones. PAS2P's must match in every run. Lamport's must differ in at
// least one masterworker run: jitter reorders the workers' arrivals at
// the master, which is the contrast §3.2 draws.
func TestOrderingInvariantUnderPerturbation(t *testing.T) {
	const procs = 8
	dep, err := pas2p.NewDeployment(pas2p.ClusterA(), procs, pas2p.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	lamportMoved := 0
	for _, name := range pas2p.AppNames() {
		app, err := pas2p.MakeApp(name, procs, cheapWorkload[name])
		if err != nil {
			t.Fatal(err)
		}
		order := func(inj *pas2p.FaultInjector) (ours, lamport string) {
			r, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: dep, Trace: true, Faults: inj})
			if err != nil {
				t.Fatalf("%s: traced run: %v", name, err)
			}
			lp, err := pas2p.OrderLogical(r.Trace)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ll, err := pas2p.OrderLamport(r.Trace)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return tickShape(lp), tickShape(ll)
		}
		refP, refL := order(nil)
		for seed := int64(1); seed <= 4; seed++ {
			for _, spec := range orderingSpecs {
				inj, err := pas2p.ParseFaultSpec(seed, spec)
				if err != nil {
					t.Fatal(err)
				}
				gotP, gotL := order(inj)
				if d := firstTickDiff(refP, gotP); d != "" {
					t.Errorf("%s seed %d %s: PAS2P order moved: %s", name, seed, spec, d)
				}
				if name == "masterworker" && gotL != refL {
					lamportMoved++
				}
			}
		}
	}
	if lamportMoved == 0 {
		t.Error("Lamport's order matched the fault-free one in every masterworker run; the perturbation shows no contrast")
	}
}
