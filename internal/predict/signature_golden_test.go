package predict

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"pas2p/internal/apps"
	"pas2p/internal/faults"
	"pas2p/internal/machine"
	"pas2p/internal/signature"
	"pas2p/internal/vtime"
)

// signatureGoldenFile holds one line per (app, ranks, configuration),
// recorded with the signature construction and execution runs
// simulated to completion.
const signatureGoldenFile = "testdata/signature_golden.txt"

// signatureGoldenConfigs are the experiment variants the golden file
// covers: the defaults, a signature of every phase, injected faults
// (loss, delay and jitter in the traced and signature runs, crashed
// restarts that abandon some phases), and NIC contention with
// algorithmic collectives.
var signatureGoldenConfigs = []struct {
	name  string
	apply func(t *testing.T, e *Experiment)
}{
	{"default", func(*testing.T, *Experiment) {}},
	{"allphases", func(_ *testing.T, e *Experiment) {
		e.Signature = signature.DefaultOptions()
		e.Signature.AllPhases = true
	}},
	{"faults", func(t *testing.T, e *Experiment) {
		inj, err := faults.New(faults.Config{
			Seed: 11, LossRate: 0.02, DelayRate: 0.05, MaxDelay: 20 * vtime.Microsecond,
			ComputeJitter: 0.05, CrashRate: 0.15, MaxRestartAttempts: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Faults = inj
	}},
	{"nic+algcoll", func(t *testing.T, e *Experiment) {
		e.Base = realistic(t, e.Base)
		e.Target = realistic(t, e.Target)
	}},
}

// realistic lays d's ranks out again on a copy of its cluster with NIC
// contention and algorithmic collectives switched on.
func realistic(t *testing.T, d *machine.Deployment) *machine.Deployment {
	t.Helper()
	cl := *d.Cluster
	cl.NICContention, cl.AlgorithmicCollectives = true, true
	nd, err := machine.NewDeployment(&cl, d.Ranks, d.Policy)
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// signatureGoldenLine renders the timings the golden file pins.
func signatureGoldenLine(label string, out *Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s SCT=%d SET=%d PET=%d AET=%d lost=%v phases=", label,
		int64(out.SCT), int64(out.SET), int64(out.PET), int64(out.AETTarget), out.LostPhases)
	for i, m := range out.Phases {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%d/%d/%d", m.PhaseID, int64(m.ET), int64(m.Restart), int64(m.Warmup))
	}
	return b.String()
}

// runSignatureGolden runs every golden experiment (base cluster C,
// target cluster A, default workloads, 8 and 16 ranks) and returns the
// rendered lines in a fixed order.
func runSignatureGolden(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, name := range apps.Names() {
		for _, procs := range []int{8, 16} {
			base := dep(t, machine.ByName("C"), procs)
			target := dep(t, machine.ByName("A"), procs)
			for _, cfg := range signatureGoldenConfigs {
				label := fmt.Sprintf("%s/%d/%s", name, procs, cfg.name)
				e := Experiment{
					App: mkApp(t, name, procs, ""), Base: base, Target: target,
					EventOverhead: 8 * vtime.Microsecond,
				}
				cfg.apply(t, &e)
				out, err := Run(e)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				lines = append(lines, signatureGoldenLine(label, out))
			}
		}
	}
	return lines
}

// TestSignatureGolden pins SCT, SET, PET, the target AET, the lost
// phases and each phase's ET/Restart/Warmup bit for bit on all
// registered apps. The construction and execution runs stop once every
// rank has retired; the recorded values come from running them to
// completion, so any drift means the early stop is not exact.
func TestSignatureGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 104 full predictions")
	}
	f, err := os.Open(signatureGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := runSignatureGolden(t)
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("golden mismatch:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
