package apps

import (
	"reflect"
	"testing"
)

// minRanks probes the smallest process count in [2, 8] the app's
// constructor accepts (BT and SP want perfect squares, others accept
// any count from their floor upward).
func minRanks(t *testing.T, name string) int {
	t.Helper()
	for p := 2; p <= 8; p++ {
		if _, err := Make(name, p, smallWorkload[name]); err == nil {
			return p
		}
	}
	t.Fatalf("%s: no valid rank count in [2, 8]", name)
	return 0
}

// TestMinimalRankSmoke: every registered application must produce a
// usable trace at its smallest supported rank count, the floor any
// test that sweeps the registry relies on. Each trace must
// contain real communication (not just compute segments), and a rerun
// under the same configuration must reproduce the event counts
// exactly: the simulator is seeded virtual time, so any drift here is
// nondeterminism leaking into the pipeline.
func TestMinimalRankSmoke(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			procs := minRanks(t, name)
			if procs > 4 && name != "bt" && name != "sp" {
				t.Errorf("%s: minimal rank count %d is suspiciously high", name, procs)
			}
			res, app := runTraced(t, name, procs, smallWorkload[name])
			if app.Procs != procs {
				t.Fatalf("app reports %d procs, want %d", app.Procs, procs)
			}
			st := res.Recording.Trace().Stats()
			if st.Events == 0 {
				t.Fatal("trace has no events")
			}
			if st.Sends+st.Recvs+st.Collectives == 0 {
				t.Errorf("trace has no communication events: %+v", st)
			}
			if st.Sends != st.Recvs {
				t.Errorf("unmatched point-to-point traffic: %d sends, %d recvs", st.Sends, st.Recvs)
			}
			if res.Elapsed <= 0 {
				t.Fatalf("elapsed %v", res.Elapsed)
			}

			again, _ := runTraced(t, name, procs, smallWorkload[name])
			if got := again.Recording.Trace().Stats(); !reflect.DeepEqual(st, got) {
				t.Errorf("event counts unstable across identical runs:\n%+v\nvs\n%+v", st, got)
			}
			if again.Elapsed != res.Elapsed {
				t.Errorf("virtual makespan unstable: %v vs %v", res.Elapsed, again.Elapsed)
			}
		})
	}
}
