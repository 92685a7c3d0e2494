package sigrepo

import (
	"path/filepath"
	"strings"
	"testing"

	"pas2p/internal/apps"
	"pas2p/internal/faults"
	"pas2p/internal/fsx"
	"pas2p/internal/machine"
	"pas2p/internal/obs"
	"pas2p/internal/signature"
)

type chaosIdentity struct {
	app      string
	procs    int
	workload string
}

var chaosIdentities = []chaosIdentity{
	{"cg", 8, "classA"},
	{"ep", 8, "classA"},
	{"moldy", 8, "tip4p-short"},
}

func predictStored(t *testing.T, repo *Repo, id chaosIdentity, target *machine.Deployment) *signature.ExecResult {
	t.Helper()
	e, err := repo.Lookup(id.app, id.procs, id.workload)
	if err != nil {
		t.Fatalf("lookup %s/p%d/%q: %v", id.app, id.procs, id.workload, err)
	}
	res, err := e.Predict(target, apps.Make)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestChaosFsckRepairsSeededCorruption is the end-to-end durability
// property: signatures stored through a fault-injecting filesystem
// (seeded torn writes, tail truncations, bit-flips) must never be
// served wrong. For every path the injector reports corrupted, Fsck
// either quarantines the file or the damage is provably harmless (the
// entry still predicts bit-identically to a baseline stored on a
// healthy disk). List never fails outright, and after repair the
// repository is clean.
func TestChaosFsckRepairsSeededCorruption(t *testing.T) {
	target, err := machine.NewDeployment(machine.ClusterB(), 8, machine.MapBlock)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: the same signatures stored and served with no faults.
	sigs := make(map[chaosIdentity]*signature.Signature)
	baseRepo, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	baseline := make(map[chaosIdentity]*signature.ExecResult)
	for _, id := range chaosIdentities {
		sigs[id] = buildSig(t, id.app, id.procs, id.workload)
		if _, err := baseRepo.Add(sigs[id], id.workload, "Cluster A"); err != nil {
			t.Fatal(err)
		}
		baseline[id] = predictStored(t, baseRepo, id, target)
	}

	totalInjected := int64(0)
	for _, seed := range []int64{1, 7, 42, 1337} {
		dir := t.TempDir()
		ffs, err := faults.NewFaultFS(fsx.OS{}, faults.FSConfig{
			Seed: seed, TornRate: 0.30, TruncRate: 0.30, FlipRate: 0.30,
		})
		if err != nil {
			t.Fatal(err)
		}
		dirty, err := OpenFS(dir, ffs, nil)
		if err != nil {
			t.Fatal(err)
		}
		fastKnobs(dirty)
		for _, id := range chaosIdentities {
			// The disk lies silently, so Add itself succeeds; the
			// corruption is what Fsck must find afterwards.
			if _, err := dirty.Add(sigs[id], id.workload, "Cluster A"); err != nil {
				t.Fatalf("seed %d: add %s: %v", seed, id.app, err)
			}
		}
		corrupted := ffs.CorruptedPaths()
		rpt := ffs.FSReport()
		totalInjected += rpt.TornWrites + rpt.Truncations + rpt.Flips

		// Reopen on the healthy filesystem: the faults are now history
		// baked into the files, exactly what a real fsck faces.
		repo, err := OpenFS(dir, nil, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}

		// Graceful degradation: a corrupted repository still lists.
		if _, _, _, err := repo.List(); err != nil {
			t.Fatalf("seed %d: List failed on corrupted repo: %v", seed, err)
		}

		rep, err := repo.Fsck()
		if err != nil {
			t.Fatalf("seed %d: fsck: %v", seed, err)
		}
		quarantined := make(map[string]bool)
		for _, q := range rep.Quarantined {
			quarantined[strings.TrimSuffix(filepath.Base(q), filepath.Ext(filepath.Base(q)))] = true
			quarantined[filepath.Base(q)] = true
		}

		// Detection completeness over the injector's ground truth.
		for _, p := range corrupted {
			base := filepath.Base(p)
			if !strings.HasSuffix(base, sigSuffix) {
				// Manifest (or lock) damage: the journal is rebuilt
				// wholesale by Fsck, and the post-repair checks below
				// prove the rebuild healed it.
				continue
			}
			if quarantined[base] {
				continue
			}
			// Not quarantined: only acceptable if the damage was
			// harmless (e.g. a lost trailing newline) — the entry must
			// still verify AND predict bit-identically to baseline.
			var id *chaosIdentity
			for i := range chaosIdentities {
				c := chaosIdentities[i]
				if filepath.Base(sigKind.key(c.app, c.procs, c.workload)) == base {
					id = &c
				}
			}
			if id == nil {
				t.Fatalf("seed %d: corrupted path %s neither quarantined nor identifiable", seed, p)
			}
			got := predictStored(t, repo, *id, target)
			want := baseline[*id]
			if got.PET != want.PET || got.SET != want.SET {
				t.Fatalf("seed %d: corrupted entry %s survived fsck and predicts wrong: PET %v/%v SET %v/%v",
					seed, base, got.PET, want.PET, got.SET, want.SET)
			}
		}

		// After repair, the repository is internally consistent...
		entries, _, problems, err := repo.List()
		if err != nil {
			t.Fatalf("seed %d: post-fsck List: %v", seed, err)
		}
		if len(problems) != 0 {
			t.Fatalf("seed %d: problems survived fsck: %v", seed, problems)
		}
		if len(entries)+rep.Corrupt != len(chaosIdentities) {
			t.Fatalf("seed %d: %d entries + %d quarantined != %d stored",
				seed, len(entries), rep.Corrupt, len(chaosIdentities))
		}
		// ...and every surviving entry predicts exactly like baseline.
		for _, e := range entries {
			id := chaosIdentity{e.Saved.AppName, e.Saved.Procs, e.Saved.Workload}
			got := predictStored(t, repo, id, target)
			want, ok := baseline[id]
			if !ok {
				t.Fatalf("seed %d: unexpected surviving entry %+v", seed, id)
			}
			if got.PET != want.PET || got.SET != want.SET {
				t.Fatalf("seed %d: survivor %s diverges from baseline: PET %v/%v SET %v/%v",
					seed, e.Path, got.PET, want.PET, got.SET, want.SET)
			}
		}
		// A second fsck on the repaired repository is a no-op.
		rep2, err := repo.Fsck()
		if err != nil {
			t.Fatal(err)
		}
		if rep2.Corrupt != 0 || len(rep2.Problems) != 0 {
			t.Fatalf("seed %d: second fsck found new damage: %+v", seed, rep2)
		}
	}
	if totalInjected == 0 {
		t.Fatal("fault schedule injected nothing across all seeds; rates too low to prove anything")
	}
}
