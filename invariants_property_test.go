// The paper's invariants as properties over every registered
// application: Eq. 1 recomposes from the measured phases, stricter
// similarity thresholds never fold more phases together, and the 1%
// rule alone decides which phases are relevant.
package pas2p_test

import (
	"testing"

	"pas2p"
	"pas2p/internal/vtime"
)

// cheapWorkload maps each app to a workload that traces in well under
// a second at 4 ranks.
var cheapWorkload = map[string]string{
	"cg": "classA", "ep": "classA", "is": "classA", "bt": "classA",
	"sp": "classA", "lu": "classA", "ft": "classA",
	"sweep3d":      "sweep.150 3",
	"smg2000":      "-n 120 solver 3 iterations 90",
	"pop":          "synthetic20",
	"moldy":        "tip4p-short",
	"gromacs":      "d.lzm",
	"masterworker": "rounds2",
}

func TestPaperInvariantsAllApps(t *testing.T) {
	names := pas2p.AppNames()
	if len(names) != len(cheapWorkload) {
		t.Fatalf("%d registered apps, %d with a cheap workload", len(names), len(cheapWorkload))
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const procs = 4
			app, err := pas2p.MakeApp(name, procs, cheapWorkload[name])
			if err != nil {
				t.Fatal(err)
			}
			base, err := pas2p.NewDeployment(pas2p.ClusterA(), procs, pas2p.MapBlock)
			if err != nil {
				t.Fatal(err)
			}
			target, err := pas2p.NewDeployment(pas2p.ClusterB(), procs, pas2p.MapBlock)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: base, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			cfg := pas2p.DefaultPhaseConfig()
			an, tb, err := pas2p.Analyze(traced.Trace, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}

			// 1% relevance: a phase is relevant exactly when its
			// occurrences add up to at least 1% of the AET.
			rows := map[int]bool{}
			for _, r := range tb.Rows {
				rows[r.PhaseID] = r.Relevant
			}
			if len(rows) != len(an.Phases) {
				t.Fatalf("%d table rows for %d phases", len(rows), len(an.Phases))
			}
			cut := float64(an.AET) * cfg.RelevanceFraction
			for _, p := range an.Phases {
				relevant, ok := rows[p.ID]
				if !ok {
					t.Fatalf("phase %d has no table row", p.ID)
				}
				if meets := float64(p.TotalDur()) >= cut; relevant != meets {
					t.Errorf("phase %d: relevant=%v but total %v vs 1%% cut %.0fns", p.ID, relevant, p.TotalDur(), cut)
				}
			}

			// Eq. 1 over the table: Σ PhaseET·W over the relevant rows.
			var sum vtime.Duration
			for _, r := range tb.RelevantRows() {
				sum += r.PhaseET * vtime.Duration(r.Weight)
			}
			if got := tb.PredictedAET(true); got != sum {
				t.Errorf("PredictedAET(true) = %v, Σ PhaseET·W over relevant rows = %v", got, sum)
			}

			// Eq. 1 over the signature run: PET is the sum of the
			// measured phases' contributions.
			sig, _, err := pas2p.BuildSignature(app, tb, base, pas2p.DefaultSignatureOptions())
			if err != nil {
				t.Fatal(err)
			}
			res, err := sig.Execute(target)
			if err != nil {
				t.Fatal(err)
			}
			var pet vtime.Duration
			for _, m := range res.Phases {
				pet += m.Contribution()
			}
			if res.PET != pet {
				t.Errorf("PET %v, Σ phase contributions %v", res.PET, pet)
			}

			// Stricter similarity never lowers the phase count.
			phasesAt := func(event, compute float64) int {
				c := pas2p.DefaultPhaseConfig()
				c.EventSimilarity, c.ComputeSimilarity = event, compute
				_, tb, err := pas2p.Analyze(traced.Trace, c, 1)
				if err != nil {
					t.Fatalf("event %.2f, compute %.2f: %v", event, compute, err)
				}
				return tb.TotalPhases
			}
			for _, sweep := range []struct {
				name string
				at   func(float64) int
				from []float64
			}{
				{"event", func(v float64) int { return phasesAt(v, cfg.ComputeSimilarity) }, []float64{0.5, cfg.EventSimilarity, 0.9, 1}},
				{"compute", func(v float64) int { return phasesAt(cfg.EventSimilarity, v) }, []float64{0.5, cfg.ComputeSimilarity, 0.95, 1}},
			} {
				prev := 0
				for _, v := range sweep.from {
					n := sweep.at(v)
					if n < prev {
						t.Errorf("%s similarity %.2f: %d phases, fewer than %d at a lower threshold", sweep.name, v, n, prev)
					}
					prev = n
				}
			}
		})
	}
}
